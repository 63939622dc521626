//go:build !race

package detect

// raceEnabled reports whether the race detector is active; see
// race_test.go.
const raceEnabled = false
