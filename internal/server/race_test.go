//go:build race

package server

// raceEnabled reports a -race build: the race detector adds allocations
// of its own and makes sync.Pool drop a random share of what is put
// back, so the exact allocation gates skip.
const raceEnabled = true
