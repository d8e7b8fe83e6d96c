package gpu

import (
	"math/bits"
	"sync"
)

// maxRecycledClass is the largest capacity class the recycler keeps: a
// backing of more than 2^24 words (64 MiB) goes back to the garbage
// collector when it is freed. The figures' largest is 1 MiB.
const maxRecycledClass = 24

// recycler keeps zeroed device-memory backings for reuse. Every backing the
// GPUs of this process hand out comes from get and goes back through put, so
// device memory is scrubbed once, when it is freed (A3), and the next
// allocation of its class takes it as it is instead of the runtime zeroing a
// fresh copy. Backings are kept by power-of-two capacity: class c holds
// backings of exactly 2^c words. Kernels on parallel goroutines share it, so
// one mutex guards the lists; the scrub runs outside it.
//
// The invariant is that a kept backing is zero over its whole capacity and
// that no live span or scratch arena references it: put clears w[:len(w)],
// and nothing past len(w) was ever handed out.
type recycler struct {
	mu   sync.Mutex
	free [maxRecycledClass + 1][][]float32
}

// backings is the process's one recycler of device memory.
var backings recycler

// get returns a backing of exactly words words, all zero. Its capacity is
// the power of two at or above words, unless that class is not kept.
func (r *recycler) get(words int) []float32 {
	c := bits.Len(uint(words - 1))
	if c > maxRecycledClass {
		return make([]float32, words)
	}
	r.mu.Lock()
	list := r.free[c]
	if n := len(list); n > 0 {
		w := list[n-1]
		list[n-1] = nil
		r.free[c] = list[:n-1]
		r.mu.Unlock()
		return w[:words]
	}
	r.mu.Unlock()
	return make([]float32, words, 1<<c)
}

// put scrubs w[:len(w)] and keeps the backing for the next get of its
// class. The caller must hold no other reference to it.
func (r *recycler) put(w []float32) {
	clear(w)
	c := bits.Len(uint(cap(w))) - 1
	if c < 0 || c > maxRecycledClass || cap(w) != 1<<c {
		return
	}
	w = w[:0]
	r.mu.Lock()
	r.free[c] = append(r.free[c], w)
	r.mu.Unlock()
}
