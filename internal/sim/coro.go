//go:build go1.23

package sim

// This is the only file that imports iter, and the build line above is why it
// can: go.mod stays at language level 1.22 — bench/go.mod says 1.22 and
// resolves this module through a replace, so raising the root line makes
// `bash bench/run.sh` fail with "go: updates to go.mod needed" — and at that
// level go vet rejects a bare iter.Pull ("requires go1.23 or later"). A file
// constraint lifts the language level for this file alone. There is
// deliberately no !go1.23 twin: the kernel has one hand-off mechanism, and an
// older toolchain fails to build instead of silently running another one.

import "iter"

// newCoro creates the coroutine one simulated process runs on. body does not
// start until the first resume; each resume runs it until it calls yield and
// returns the yielded process, or ok=false once body has returned. A switch
// in either direction is a runtime coroswitch: a direct hand-off between two
// goroutines with no scheduler pass, no wakep and no futex. iter.Pull's stop
// is dropped because the kernel always runs body to its end (Shutdown
// unwinds parked processes through resume).
func newCoro(body func(yield func(*Proc) bool)) (resume func() (*Proc, bool)) {
	resume, _ = iter.Pull(iter.Seq[*Proc](body))
	return resume
}
