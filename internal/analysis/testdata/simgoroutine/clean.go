package fixture

// evented mimics the sanctioned shape: concurrency-free component code that
// expresses independent activity by scheduling callbacks. Nothing here
// touches goroutines, channels, or sync.
type evented struct {
	pending []func()
}

func (l *evented) after(fn func()) { l.pending = append(l.pending, fn) }

func (l *evented) pump() {
	for len(l.pending) > 0 {
		fn := l.pending[0]
		l.pending = l.pending[1:]
		fn()
	}
}

// arrowFreeOps proves the operators the rule must NOT confuse with channel
// ops: pointer derefs, unary minus/not, and shifts are all legal.
func arrowFreeOps(p *int, x int) int {
	v := *p
	v = -v
	v = v << 2
	if !(v == x) {
		v++
	}
	return v
}
