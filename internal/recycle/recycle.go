// Package recycle keeps zeroed backings of simulated memory for reuse: GPU
// device memory, NPU DRAM and scratchpads, and physical frames. Every backing
// these memories hand out comes from Get and goes back through Put, so it is
// scrubbed once, when it is freed (A3), and the next allocation of its class
// takes it as it is instead of the runtime zeroing a fresh copy.
package recycle

import (
	"math/bits"
	"sync"
)

// maxClassBytes is log2 of the largest backing kept, in bytes: one of more
// than 64 MiB goes back to the garbage collector when it is put.
const maxClassBytes = 26

// Elem is an element type of simulated memory.
type Elem interface{ byte | int32 | float32 }

// Recycler keeps zeroed backings by power-of-two capacity: class c holds
// backings of exactly 2^c elements. Kernels on parallel goroutines share
// one, so one mutex guards the lists; the scrub runs outside it.
//
// The invariant is that a kept backing is zero over its whole capacity and
// that nothing live references it: Put clears w[:len(w)], and nothing past
// len(w) was ever handed out.
type Recycler[T Elem] struct {
	mu   sync.Mutex
	free [maxClassBytes + 1][][]T
}

// The process's recyclers, one per element type.
var (
	Float32s Recycler[float32] // GPU spans and scratch arenas
	Bytes    Recycler[byte]    // NPU DRAM, the NPU's inp, wgt and out scratchpads, physical frames
	Int32s   Recycler[int32]   // the NPU's accumulator scratchpad
)

// maxClass is the largest class kept: 2^maxClass elements fill
// 2^maxClassBytes bytes.
func (r *Recycler[T]) maxClass() int {
	var zero T
	if _, ok := any(zero).(byte); ok {
		return maxClassBytes
	}
	return maxClassBytes - 2 // four-byte elements
}

// Get returns a backing of exactly n elements, all zero; n must be
// positive. Its capacity is the power of two at or above n, unless that
// class is not kept.
func (r *Recycler[T]) Get(n int) []T {
	c := bits.Len(uint(n - 1))
	if c > r.maxClass() {
		return make([]T, n)
	}
	r.mu.Lock()
	list := r.free[c]
	if k := len(list); k > 0 {
		w := list[k-1]
		list[k-1] = nil
		r.free[c] = list[:k-1]
		r.mu.Unlock()
		return w[:n]
	}
	r.mu.Unlock()
	return make([]T, n, 1<<c)
}

// Put scrubs w[:len(w)] and keeps the backing for the next Get of its
// class. The caller must hold no other reference to it.
func (r *Recycler[T]) Put(w []T) {
	clear(w)
	c := bits.Len(uint(cap(w))) - 1
	if c < 0 || c > r.maxClass() || cap(w) != 1<<c {
		return
	}
	w = w[:0]
	r.mu.Lock()
	r.free[c] = append(r.free[c], w)
	r.mu.Unlock()
}
