package engine

import "sync"

// Engine plays internal/sim: a worker fan-out in the event engine is host
// concurrency like any other, and the rule covers the engine too.
type Engine struct {
	wg sync.WaitGroup
}

func (e *Engine) fan(work []func()) {
	for _, w := range work {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			w()
		}()
	}
	e.wg.Wait()
}
