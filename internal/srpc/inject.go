package srpc

import "cronus/internal/sim"

// CallHook is one platform's push observer, for the chaos harness and the
// corruption tests: the platform's Transport owns the slot and every Client
// keeps a pointer to it from Connect on, so a hook set after the streams are
// up still sees their pushes and one set on another platform never does.
type CallHook struct {
	fn func(p *sim.Proc, c *Client, n uint64)
}

// Set installs (or, with nil, removes) the observer. It runs after each
// record push on the platform, on the pushing Proc, at the virtual instant
// the record became visible to the executor. n is the 1-based ordinal of the
// push on that client's stream, which is how the chaos harness implements
// "inject on the Nth sRPC call on stream S" triggers deterministically.
func (h *CallHook) Set(fn func(p *sim.Proc, c *Client, n uint64)) { h.fn = fn }
