//go:build race

package sim

// See race_off_test.go.
const raceEnabled = true
