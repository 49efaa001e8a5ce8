//go:build race

package server

// The race detector instruments allocation and makes sync.Pool drop a
// quarter of what it is given, so allocation counts mean nothing under it.
func init() { raceEnabled = true }
