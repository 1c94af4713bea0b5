//go:build !race

package query

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
