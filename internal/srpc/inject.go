package srpc

import "cronus/internal/sim"

// callHook, when non-nil, observes every successful record push on every
// stream in the process. It exists solely for the chaos harness.
var callHook func(p *sim.Proc, c *Client, n uint64)

// SetCallHook installs (or, with nil, removes) a package-level observer that
// runs after each record push, on the pushing Proc, at the virtual instant
// the record became visible to the executor. n is the 1-based ordinal of the
// push on that client's stream, which is how the chaos harness implements
// "inject on the Nth sRPC call on stream S" triggers deterministically.
//
// Exactly one campaign may install the hook at a time, and it must be
// removed (SetCallHook(nil)) before another simulated platform runs, or the
// hook would observe — and possibly perturb — an unrelated run.
func SetCallHook(fn func(p *sim.Proc, c *Client, n uint64)) { callHook = fn }

// recycleHook, when non-nil, is handed every data-path buffer the package
// reuses, at the moment its previous contents stop being valid: the
// executor's staging buffers and reply encoder once a record is consumed, a
// client's reply buffer when its next call starts.
var recycleHook func(buf []byte)

// SetRecycleHook installs (or, with nil, removes) the recycled-buffer
// observer. It exists for lifetime-contract tests: a hook that overwrites
// buf makes any mECall implementation that kept its args, and any caller
// that kept a result past the next call, read garbage instead of bytes that
// merely happen to still be there. Like SetCallHook it is process-global and
// must be removed before unrelated runs.
func SetRecycleHook(fn func(buf []byte)) { recycleHook = fn }
