// Package sim is a minimal stand-in for the event engine: just enough
// surface for shardsafe to recognize lane callbacks by their full method
// names.
package sim

// Lane is the stand-in per-node event lane.
type Lane struct {
	id int
}

// At schedules fn at tick t on this lane.
func (l *Lane) At(t int64, fn func()) {
	fn()
}
