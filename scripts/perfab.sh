#!/usr/bin/env bash
# Same-host A/B of the repository benchmark between two checkouts:
#
#   bash scripts/perfab.sh <parent-dir> <change-dir> <workload> <pairs> [seconds]
#
# Each pair runs `bash perfbench/run.sh --trace 0` once in each checkout
# with the same seed. Every pair gets a fresh seed (the first one is
# derived from the clock and printed, so a pair can be rerun), and the
# order alternates: the parent runs first in odd pairs, the change in even
# ones, so a slow phase of the host does not land on one side only.
#
# Per pair it prints converge_s_p50, converge_sweeps_p50,
# ns_per_chain_round and drive_alloc_mb of both sides. At the end it
# prints how many pairs the change won on converge_s_p50 (strictly lower)
# and each side's median and quartiles of the four metrics. It exits 1 if
# any run fails, reports "correct": false or a failed drive, and 2 on a
# usage error. seconds defaults to 30.
set -euo pipefail

usage() {
	echo "usage: bash scripts/perfab.sh <parent-dir> <change-dir> <workload> <pairs> [seconds]" >&2
	exit 2
}
[[ $# -eq 4 || $# -eq 5 ]] || usage
parent=$1 change=$2 workload=$3 pairs=$4 seconds=${5:-30}
[[ $pairs =~ ^[1-9][0-9]*$ && $seconds =~ ^[1-9][0-9]*$ ]] || usage
for dir in "$parent" "$change"; do
	if [[ ! -f $dir/perfbench/run.sh ]]; then
		echo "perfab: $dir has no perfbench/run.sh" >&2
		exit 2
	fi
done

metrics="converge_s_p50 converge_sweeps_p50 ns_per_chain_round drive_alloc_mb"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
touch "$out/results"
seed0=$(($(date +%s) % 1000000 * 100))
echo "perfab: workload $workload, $pairs pairs of ${seconds}s runs, seeds $((seed0 + 1))..$((seed0 + pairs))"
echo "parent: $parent"
echo "change: $change"

# runone <side> <dir> <seed> <pair>: runs the benchmark and appends one
# "side pair seed value..." line to $out/results; returns 1 on any failure.
runone() {
	local side=$1 dir=$2 seed=$3 pair=$4 log=$out/$1-$4.log
	if ! (cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) >"$log" 2>&1; then
		echo "perfab: $side run of pair $pair (seed $seed) exited nonzero; last lines:" >&2
		tail -5 "$log" >&2
		return 1
	fi
	tail -1 "$log" | awk -v side="$side" -v pair="$pair" -v seed="$seed" -v names="$metrics" '
		function value(name,   i, rest) {
			i = index($0, "\"" name "\":{\"value\":")
			if (i == 0) return ""
			rest = substr($0, i + length(name) + 12)
			return substr(rest, 1, match(rest, /[,}]/) - 1)
		}
		{
			if (index($0, "\"correct\":true") == 0) bad = bad " correct!=true"
			if (index($0, "\"failed\":0,") == 0) bad = bad " failed>0"
			line = side " " pair " " seed
			n = split(names, m, " ")
			for (k = 1; k <= n; k++) {
				v = value(m[k])
				if (v == "") bad = bad " no " m[k]
				line = line " " v
			}
			if (bad != "") { print "perfab: " side " run of pair " pair " (seed " seed "):" bad > "/dev/stderr"; exit 1 }
			print line
		}' >>"$out/results"
}

status=0
for ((p = 1; p <= pairs; p++)); do
	seed=$((seed0 + p))
	if ((p % 2 == 1)); then
		runone parent "$parent" "$seed" "$p" || status=1
		runone change "$change" "$seed" "$p" || status=1
	else
		runone change "$change" "$seed" "$p" || status=1
		runone parent "$parent" "$seed" "$p" || status=1
	fi
	awk -v p="$p" '$2 == p { printf "pair %d seed %d %s: converge_s_p50 %.4f  sweeps %.2f  ns/chain-round %.0f  drive_alloc_mb %.3f\n", $2, $3, $1, $4, $5, $6, $7 }' "$out/results"
done

[[ -s $out/results ]] || exit 1
awk -v names="$metrics" '
	# q returns the p-quantile of the sorted a[1..n], linearly interpolated.
	function q(a, n, p,   h, lo) {
		h = (n - 1) * p + 1
		lo = int(h)
		return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	function report(side, k,   n, i, j, t, a) {
		n = 0
		for (i = 1; i <= npairs[side]; i++) a[++n] = val[side, i, k]
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		printf "  %s median %.6g  quartiles [%.6g, %.6g]\n", side, q(a, n, 0.5), q(a, n, 0.25), q(a, n, 0.75)
	}
	{
		i = ++npairs[$1]
		pair[$1, i] = $2
		for (k = 1; k <= 4; k++) val[$1, i, k] = $(k + 3)
		byPair[$1, $2] = $4
	}
	END {
		if (npairs["parent"] == 0 || npairs["change"] == 0) exit
		wins = total = 0
		for (i = 1; i <= npairs["parent"]; i++) {
			p = pair["parent", i]
			if (("change", p) in byPair) {
				total++
				if (byPair["change", p] < byPair["parent", p]) wins++
			}
		}
		printf "change wins %d of %d complete pairs on converge_s_p50\n", wins, total
		split(names, m, " ")
		for (k = 1; k <= 4; k++) {
			print m[k] ":"
			report("parent", k)
			report("change", k)
		}
	}' "$out/results"
exit $status
