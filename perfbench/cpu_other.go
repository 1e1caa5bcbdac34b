//go:build !amd64

package main

// cpuModel has no portable source outside amd64.
func cpuModel() string { return "unknown" }
