package srpc_test

import (
	"errors"
	"testing"

	"cronus/internal/mos"
	"cronus/internal/mos/driver"
	"cronus/internal/sim"
	"cronus/internal/srpc"
)

// TestRingCorruptionTypedError is the ISSUE 4 regression test for the ring
// header trusting seq/len words unconditionally: a corrupted producer index
// must surface as the typed ErrRingCorrupt on the owner — even for a caller
// already blocked in a synchronous wait — never as a misparse or a hang.
//
// The corruption is injected through the chaos call hook exactly the way the
// chaos harness does it: after the Nth push on the stream, while the caller
// is about to enter its sync wait. The executor observes the out-of-window
// producer index, aborts, publishes the sticky corrupt code and poisons Sid;
// the blocked caller escapes through the poisoned doorbell with the typed
// error.
func TestRingCorruptionTypedError(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		injected := false
		h.pl.D.CallHook().Set(func(hp *sim.Proc, hc *srpc.Client, n uint64) {
			if hc.StreamID() == c.StreamID() && n == 3 {
				injected = true
				_ = hc.InjectRingCorruption(hp, 1<<63)
			}
		})

		ptr := func(n uint64) uint64 {
			res, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(n))
			if err != nil {
				t.Fatal(err)
			}
			v, _ := driver.DecodePtr(res)
			return v
		}
		a := ptr(64) // call 1 (sync)
		if _, err := c.Call(p, driver.CallHtoD, driver.EncodeHtoD(a, make([]byte, 64))); err != nil {
			return err // call 2 (async)
		}
		// Call 3 is synchronous: the hook corrupts Rid right after its
		// record is pushed, so this caller blocks on a stream nobody will
		// legitimately advance again.
		_, err = c.Call(p, driver.CallDtoH, dtoh(a, 64))
		if !injected {
			t.Fatal("corruption hook never fired")
		}
		if err == nil {
			t.Fatal("sync call on corrupted ring succeeded; want ErrRingCorrupt")
		}
		if !errors.Is(err, mos.ErrRingCorrupt) {
			t.Fatalf("sync call error = %v; want ErrRingCorrupt", err)
		}
		if !c.Dead() {
			t.Error("stream not marked dead after corruption")
		}

		// Recovery is re-establishment: a fresh stream to the same enclave
		// works (the executor cleaned its stream state up when it aborted).
		c2, err := h.connect(p)
		if err != nil {
			return err
		}
		if _, err := c2.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(16)); err != nil {
			t.Fatalf("fresh stream after corruption: %v", err)
		}
		return c2.Close(p)
	})
}

// TestRingCorruptionFlowControl: a pusher parked in flow control (ring full)
// must also escape with the typed error when the executor poisons Sid —
// the poisoned index would otherwise underflow the occupancy computation
// and park the pusher forever.
func TestRingCorruptionFlowControl(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		h.pl.D.CallHook().Set(func(hp *sim.Proc, hc *srpc.Client, n uint64) {
			if hc.StreamID() == c.StreamID() && n == 2 {
				// Corrupt the record header in place: the executor's
				// framing validation must reject it when it drains this
				// far, long after the owner has moved on to later pushes.
				_ = hc.InjectRecordCorruption(hp, 0x10)
			}
		})
		res, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(1<<16))
		if err != nil {
			return err
		}
		dst, _ := driver.DecodePtr(res)
		// Stream large uploads until either a push observes the poisoned
		// Sid in flow control or a sync call surfaces the sticky code.
		var lastErr error
		for i := 0; i < 64 && lastErr == nil; i++ {
			_, lastErr = c.Call(p, driver.CallHtoD, driver.EncodeHtoD(dst, make([]byte, 16<<10)))
		}
		if lastErr == nil {
			lastErr = c.Barrier(p)
		}
		if lastErr == nil {
			t.Fatal("no error surfaced after ring corruption")
		}
		if !errors.Is(lastErr, mos.ErrRingCorrupt) {
			t.Fatalf("error = %v; want ErrRingCorrupt", lastErr)
		}
		return nil
	})
}

// TestAbandonIdempotent: Abandon never blocks, is idempotent, and leaves the
// client returning fast errors instead of touching the ring.
func TestAbandonIdempotent(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		if _, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(16)); err != nil {
			return err
		}
		c.Abandon()
		c.Abandon()
		if !c.Dead() {
			t.Error("abandoned stream not dead")
		}
		if _, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(16)); err == nil {
			t.Error("call on abandoned stream succeeded")
		}
		return nil
	})
}
