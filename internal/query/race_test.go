//go:build race

package query

// raceEnabled reports a -race build: the race detector makes sync.Pool
// drop a random share of what is put back, so the exact allocation gates
// skip.
const raceEnabled = true
