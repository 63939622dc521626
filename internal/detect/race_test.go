//go:build race

package detect

// raceEnabled reports whether the race detector is active. Allocation
// budgets are skipped under -race: sync.Pool deliberately drops items
// at random when the detector is on, so pooled-scratch reuse — and with
// it the per-tick allocation count — becomes nondeterministic.
const raceEnabled = true
