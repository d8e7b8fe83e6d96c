package serve

// arenaChunk is how many objects one arena allocation holds. At 256 the three
// arenas together cost about one allocation per hundred requests. A chunk must
// stay within Go's 32 KiB small-object limit: past it a chunk becomes a
// large-object span rounded up to whole pages, and every object carved from
// it pays for the slack. At 96 bytes a request chunk is 24,576 B, exactly one
// small-object size class (TestRequestLayout).
const arenaChunk = 256

// arena carves objects out of chunks: take hands out the next n slots of the
// current chunk and starts a fresh one when fewer are left. Slots are never
// handed out twice — this is carving, not pooling. The serving plane's
// exactly-once detector (Request.completions) and its stale-event rules (see
// newBatch) both rest on an object's identity lasting as long as anything can
// still point at it, which a free list would break and the garbage collector
// upholds: a chunk is collected once every object carved from it is dead.
type arena[T any] struct{ free []T }

// take returns n zeroed, never-before-seen slots, capacity clipped to n.
func (a *arena[T]) take(n int) []T {
	if len(a.free) < n {
		a.free = make([]T, max(n, arenaChunk))
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}
