// Package shardapp exercises the shardsafe lane model: a callback that
// writes its node's own state verifies cleanly, and callbacks that write
// package state, directly or through a helper, are caught.
package shardapp

import "phishare/internal/sim"

// Pool is the shared aggregate whose node state lane callbacks touch.
type Pool struct {
	last int
}

var hits int

// LaneGood writes node-owned (receiver) state from a lane callback: the
// lane partition owns it by construction, so this is clean.
func (p *Pool) LaneGood(l *sim.Lane) {
	l.At(5, func() {
		p.last = 7
	})
}

// LaneBad writes package-level state, directly and through a helper: lanes
// run concurrently, so both are flagged.
func (p *Pool) LaneBad(l *sim.Lane) {
	l.At(9, func() {
		hits++
		tick()
	})
}

func tick() {
	hits++
}
