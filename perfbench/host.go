package main

import (
	"fmt"
	"runtime"
)

// host is the fingerprint printed with every result, so that a comparison
// across machines shows as one.
type host struct {
	nproc, gomaxprocs, workers int
	cpu, goVersion             string
	seed                       int64
}

func fingerprint(workers int, seed int64) host {
	return host{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		workers:    workers,
		cpu:        cpuModel(),
		goVersion:  runtime.Version(),
		seed:       seed,
	}
}

func (h host) String() string {
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d workers=%d cpu=%q go=%s seed=%d",
		h.nproc, h.gomaxprocs, h.workers, h.cpu, h.goVersion, h.seed)
}
