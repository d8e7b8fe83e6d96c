package srpc_test

import (
	"errors"
	"fmt"
	"testing"

	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/mos/driver"
	"cronus/internal/sim"
	"cronus/internal/srpc"
	"cronus/internal/wire"
)

// TestZeroCopyFusedExec drives the fused data plane end to end: the payload
// is staged in the arena grant, one kindNotify record replaces the HtoD +
// Launch pair, and the completion callback fires in the executor's context.
// The device result must match what the classic streamed path computes.
func TestZeroCopyFusedExec(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		if err := c.GrantArena(p, 4096); err != nil {
			return err
		}
		alloc := func(n uint64) uint64 {
			res, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(n))
			if err != nil {
				t.Fatal(err)
			}
			ptr, _ := driver.DecodePtr(res)
			return ptr
		}
		a, b, cc := alloc(16), alloc(16), alloc(16)
		if _, err := c.Call(p, driver.CallHtoD, driver.EncodeHtoD(b, gpu.Bytes([]float32{5, 6, 7, 8}))); err != nil {
			return err
		}
		done := sim.NewSignal(p.Kernel())
		var notifyErr error
		req := srpc.ZCRequest{
			Payload:  gpu.Bytes([]float32{1, 2, 3, 4}),
			CopyCall: driver.CallHtoD,
			Dst:      a,
			ExecCall: driver.CallLaunch,
			ExecArgs: driver.EncodeLaunch(new(wire.Encoder), "vec_add", gpu.Dim{4, 1, 1}, a, b, cc),
		}
		if err := c.CallZC(p, req, func(_ *sim.Proc, err error) {
			notifyErr = err
			done.Fire()
		}); err != nil {
			return err
		}
		done.Wait(p)
		if notifyErr != nil {
			return fmt.Errorf("fused exec failed: %w", notifyErr)
		}
		res, err := c.Call(p, driver.CallDtoH, dtoh(cc, 16))
		if err != nil {
			return err
		}
		blob, _ := blobOf(res)
		got := gpu.UnpackF32(blob)
		want := []float32{6, 8, 10, 12}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("fused result %v, want %v", got, want)
				break
			}
		}
		return c.Close(p)
	})
}

// TestZeroCopyArenaRotation pushes far more fused records than the arena has
// slots, forcing rotation, and asserts every completion observed the payload
// written for it — the flow-control reclamation argument of CallZC.
func TestZeroCopyArenaRotation(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		if err := c.GrantArena(p, 64); err != nil {
			return err
		}
		alloc := func(n uint64) uint64 {
			res, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(n))
			if err != nil {
				t.Fatal(err)
			}
			ptr, _ := driver.DecodePtr(res)
			return ptr
		}
		a, b, cc := alloc(16), alloc(16), alloc(16)
		if _, err := c.Call(p, driver.CallHtoD, driver.EncodeHtoD(b, gpu.Bytes([]float32{0, 0, 0, 0}))); err != nil {
			return err
		}
		const calls = 100 // > ring slots, so arena slots rotate
		completions := 0
		var firstErr error
		for i := 0; i < calls; i++ {
			v := float32(i)
			req := srpc.ZCRequest{
				Payload:  gpu.Bytes([]float32{v, v, v, v}),
				CopyCall: driver.CallHtoD,
				Dst:      a,
				ExecCall: driver.CallLaunch,
				ExecArgs: driver.EncodeLaunch(new(wire.Encoder), "vec_add", gpu.Dim{4, 1, 1}, a, b, cc),
			}
			if err := c.CallZC(p, req, func(_ *sim.Proc, err error) {
				completions++
				if err != nil && firstErr == nil {
					firstErr = err
				}
			}); err != nil {
				return err
			}
		}
		if err := c.Barrier(p); err != nil {
			return err
		}
		if firstErr != nil {
			return fmt.Errorf("fused exec failed: %w", firstErr)
		}
		if completions != calls {
			t.Errorf("got %d completions, want %d", completions, calls)
		}
		// The executor runs records strictly in order, so the last fused
		// HtoD to land in a must carry the last payload.
		res, err := c.Call(p, driver.CallDtoH, dtoh(a, 16))
		if err != nil {
			return err
		}
		blob, _ := blobOf(res)
		got := gpu.UnpackF32(blob)
		for i := range got {
			if got[i] != float32(calls-1) {
				t.Errorf("payload slot reused too early: device saw %v, want all %v", got, float32(calls-1))
				break
			}
		}
		return c.Close(p)
	})
}

// TestZeroCopyEventBudget pins the event saving that motivates the fused
// path: one CallZC must dispatch far fewer simulator events than the HtoD +
// Launch + Barrier triple it replaces (the Barrier alone costs a sync wait).
func TestZeroCopyEventBudget(t *testing.T) {
	const calls = 50
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		if err := c.GrantArena(p, 4096); err != nil {
			return err
		}
		res, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(4096))
		if err != nil {
			return err
		}
		dst, _ := driver.DecodePtr(res)
		payload := make([]byte, 1024)
		launch := driver.EncodeLaunch(new(wire.Encoder), "saxpy", gpu.Dim{16, 1, 1}, dst, dst, 2)
		start := p.Now()
		for i := 0; i < calls; i++ {
			if err := c.CallZC(p, srpc.ZCRequest{
				Payload: payload, CopyCall: driver.CallHtoD, Dst: dst,
				ExecCall: driver.CallLaunch, ExecArgs: launch,
			}, nil); err != nil {
				return err
			}
		}
		if err := c.Barrier(p); err != nil {
			return err
		}
		fusedTime := p.Now() - start
		// Classic path for the same work: two pushes plus a barrier each.
		start = p.Now()
		for i := 0; i < calls; i++ {
			if _, err := c.Call(p, driver.CallHtoD, driver.EncodeHtoD(dst, payload)); err != nil {
				return err
			}
			if _, err := c.Call(p, driver.CallLaunch, launch); err != nil {
				return err
			}
			if err := c.Barrier(p); err != nil {
				return err
			}
		}
		classicTime := p.Now() - start
		if fusedTime >= classicTime {
			t.Errorf("fused path not faster in virtual time: fused %v vs classic %v", fusedTime, classicTime)
		}
		return c.Close(p)
	})
}

// TestFusedRecordHeldToArenaSlot: the executor bounds a fused record by the
// arena geometry the owner published at grant time, not by what the record
// declares. A record whose payload range leaves its arena slot — too long,
// straddling two slots, past the last slot, or naming another region — fails
// with the typed ErrArenaBounds before the executor reads or allocates
// anything for it, and the staging it does keep never exceeds one slot.
func TestFusedRecordHeldToArenaSlot(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		if err := c.GrantArena(p, 1000); err != nil { // rounds to 1024-byte slots
			return err
		}
		res, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(4096))
		if err != nil {
			return err
		}
		dst, _ := driver.DecodePtr(res)
		launch := driver.EncodeLaunch(new(wire.Encoder), "saxpy", gpu.Dim{16, 1, 1}, dst, dst, 2)
		arena, slot := c.ArenaGeometry()
		ringSlots := uint64((srpc.DefaultPages - 1) * 4096 / srpc.SlotSize)
		srv := h.pl.Server(h.eidB)

		fused := func(arenaIPA, off, n uint64) error {
			desc := wire.NewEncoder().U64(arenaIPA).U64(off).U64(n).
				Str(driver.CallHtoD).U64(dst).Str(driver.CallLaunch).Blob(launch).Bytes()
			var got error
			done := false
			if err := c.PushRawFused(p, desc, func(_ *sim.Proc, err error) { got, done = err, true }); err != nil {
				return err
			}
			if err := c.Barrier(p); err != nil {
				return err
			}
			if !done {
				t.Fatal("fused record never completed")
			}
			return got
		}
		bad := []struct {
			name             string
			arenaIPA, off, n uint64
		}{
			{"declares 8 MiB", arena, 0, 8 << 20},
			{"one byte more than a slot", arena, 0, slot + 1},
			{"straddles two slots", arena, slot - 8, 16},
			{"past the last slot", arena, ringSlots * slot, 8},
			{"names another region", arena + 4096, 0, 8},
			{"length wraps the address space", arena, 8, ^uint64(0) - 4},
		}
		for _, b := range bad {
			if err := fused(b.arenaIPA, b.off, b.n); !errors.Is(err, srpc.ErrArenaBounds) {
				t.Errorf("%s: err = %v, want ErrArenaBounds", b.name, err)
			}
			if got := srv.ZCStagingCap(c.StreamID()); got != 0 {
				t.Errorf("%s: executor holds %d bytes of staging for a refused record", b.name, got)
			}
		}
		// In bounds: the last bytes of the last slot.
		if err := fused(arena, ringSlots*slot-8, 8); err != nil {
			t.Errorf("in-bounds fused record refused: %v", err)
		}
		if got, max := srv.ZCStagingCap(c.StreamID()), int(slot)+12; got == 0 || got > max {
			t.Errorf("executor staging is %d bytes, want within (0, %d] — one arena slot plus the copy call's prefix", got, max)
		}
		return c.Close(p)
	})
}

// TestFusedCompletionsStayOnTheirPlatform boots two platforms into one kernel
// with no SetStreamBase, so both mint stream 1, and has each push a fused
// record with a completion callback at the same slot. Each callback must fire
// exactly once, with its own record's outcome: the first platform's launch
// succeeds, the second's names a kernel its module does not hold.
func TestFusedCompletionsStayOnTheirPlatform(t *testing.T) {
	err := sim.Run(func(p *sim.Proc) error {
		type side struct {
			c     *srpc.Client
			buf   uint64
			fired int
			err   error
		}
		var sides [2]*side
		for i := range sides {
			pl, err := core.BuildPlatform(p, core.DefaultConfig())
			if err != nil {
				return err
			}
			h, err := setup(p, pl)
			if err != nil {
				return err
			}
			c, err := h.connect(p)
			if err != nil {
				return err
			}
			if err := c.GrantArena(p, 64); err != nil {
				return err
			}
			res, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(16))
			if err != nil {
				return err
			}
			ptr, _ := driver.DecodePtr(res)
			sides[i] = &side{c: c, buf: ptr}
		}
		a, b := sides[0], sides[1]
		if a.c.StreamID() != b.c.StreamID() || a.c.NextSlot() != b.c.NextSlot() {
			t.Errorf("the platforms do not collide: streams %d and %d, slots %d and %d",
				a.c.StreamID(), b.c.StreamID(), a.c.NextSlot(), b.c.NextSlot())
		}
		for i, s := range sides {
			kernel := []string{"vec_add", "not_in_the_module"}[i]
			req := srpc.ZCRequest{
				Payload:  gpu.Bytes([]float32{1, 2, 3, 4}),
				CopyCall: driver.CallHtoD,
				Dst:      s.buf,
				ExecCall: driver.CallLaunch,
				ExecArgs: driver.EncodeLaunch(new(wire.Encoder), kernel, gpu.Dim{4, 1, 1}, s.buf, s.buf, s.buf),
			}
			if err := s.c.CallZC(p, req, func(_ *sim.Proc, err error) {
				s.fired++
				s.err = err
			}); err != nil {
				return err
			}
		}
		for _, s := range sides {
			_ = s.c.Barrier(p) // drained; the second stream's failure reached its callback, not the ring
		}
		if a.fired != 1 || a.err != nil {
			t.Errorf("first platform's callback fired %d times with %v, want once with nil", a.fired, a.err)
		}
		if b.fired != 1 || b.err == nil {
			t.Errorf("second platform's callback fired %d times with %v, want once with its launch error", b.fired, b.err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
