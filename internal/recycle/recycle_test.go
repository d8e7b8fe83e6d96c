package recycle

import "testing"

func allZero[T Elem](w []T) bool {
	for _, v := range w {
		if v != 0 {
			return false
		}
	}
	return true
}

// roundTrip takes a backing of n elements from r, fills it, puts it back and
// takes the class's next one: the same memory, zero over its capacity.
func roundTrip[T Elem](t *testing.T, r *Recycler[T], n int, wantCap int) {
	t.Helper()
	w := r.Get(n)
	if len(w) != n || cap(w) != wantCap {
		t.Fatalf("Get(%d): len %d cap %d, want cap %d", n, len(w), cap(w), wantCap)
	}
	for i := range w {
		w[i] = 7
	}
	r.Put(w)
	again := r.Get(wantCap)
	if &again[0] != &w[0] {
		t.Fatalf("Get(%d) after a Put of its class did not reuse the backing", wantCap)
	}
	if !allZero(again) {
		t.Fatal("a recycled backing came back non-zero")
	}
	r.Put(again)
}

// TestRecyclersKeepPowerOfTwoClasses: each element type's recycler hands a
// backing back to the next Get of its class, scrubbed over its capacity.
func TestRecyclersKeepPowerOfTwoClasses(t *testing.T) {
	var (
		words Recycler[float32]
		bytes Recycler[byte]
		accs  Recycler[int32]
	)
	roundTrip(t, &words, 3001, 4096)
	roundTrip(t, &bytes, 4096, 4096)
	roundTrip(t, &bytes, 1, 1)
	roundTrip(t, &accs, 32768, 32768)
}

// TestRecyclerCapIsInBytes: the largest class kept is 64 MiB whatever the
// element size — 2^26 bytes, 2^24 four-byte words.
func TestRecyclerCapIsInBytes(t *testing.T) {
	if got := (&Recycler[byte]{}).maxClass(); got != 26 {
		t.Errorf("bytes: largest class 2^%d elements, want 2^26", got)
	}
	if got := (&Recycler[float32]{}).maxClass(); got != 24 {
		t.Errorf("float32: largest class 2^%d elements, want 2^24", got)
	}
	if got := (&Recycler[int32]{}).maxClass(); got != 24 {
		t.Errorf("int32: largest class 2^%d elements, want 2^24", got)
	}
}

// TestRecyclerDropsOversizedBackings: a backing past the largest kept class
// is made to its exact length and goes back to the garbage collector.
func TestRecyclerDropsOversizedBackings(t *testing.T) {
	var r Recycler[float32]
	w := r.Get(1<<r.maxClass() + 1)
	if len(w) != cap(w) || len(w) != 1<<r.maxClass()+1 {
		t.Fatalf("an oversized backing: len %d cap %d", len(w), cap(w))
	}
	w[0] = 1
	r.Put(w)
	if w[0] != 0 {
		t.Error("an oversized backing was not scrubbed")
	}
	for c, list := range r.free {
		if len(list) != 0 {
			t.Errorf("class %d keeps %d backings after an oversized Put", c, len(list))
		}
	}
}
