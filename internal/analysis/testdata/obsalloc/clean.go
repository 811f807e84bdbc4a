package fixture

import "fmt"

// observer stands in for *obs.Observer: a nil-safe emitter whose variadic
// field slice is built by the caller.
type observer struct{}

func (*observer) Emit(at int64, layer, kind string, fields ...any) {}

type field struct {
	k string
	v any
}

func f(k string, v any) field { return field{k, v} }

type component struct {
	obs  *observer
	host struct{ obs *observer }
}

// cleanGuarded wraps every field-carrying emission in its receiver's nil
// guard, so the disabled path never builds the slice.
func cleanGuarded(c *component, now int64, job int) {
	if c.obs != nil {
		c.obs.Emit(now, "phi", "oom_kill", f("job", job))
	}
	if c.obs != nil && job > 0 {
		c.obs.Emit(now, "phi", "offload_start", f("job", job), f("threads", 4))
	}
	if c.host.obs != nil {
		c.host.obs.Emit(now, "cosmic", "admitted", f("job", job))
	}
}

// cleanFieldless carries no fields: the fixed (at, layer, kind) triple
// allocates nothing, so no guard is required.
func cleanFieldless(v *observer, now int64) {
	v.Emit(now, "condor", "negotiation_start")
}

// cleanFormatting formats only under the guard.
func cleanFormatting(c *component, now int64, job int) {
	if c.obs != nil {
		c.obs.Emit(now, "condor", "match", f("name", fmt.Sprintf("job-%d", job)))
	}
}
