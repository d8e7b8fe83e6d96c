package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/srpc"
)

// The crash-point sweep: a deterministic kernel can fail a partition before
// every event of a scenario, not at a sampled instant. A scenario is one
// mECall shape ending in a Sync — a streamed Launch, a streamed 64 KiB HtoD, a
// fused ExecZC, a cuMemAlloc and cuMemFree — the opening of a stream itself
// (the dynamic-attestation handshake), or the close of the open stream and
// the opening of its successor, and the fault a crash of the callee's GPU
// partition (SPM.Fail, FailPanic).

const sweepScale = 3

// crashScenario is one call shape the sweep crashes the callee under: the
// device buffer's length in floats (HtoD'd with ramp(elems, 1) when the
// stream opens), the zero-copy arena the stream needs (0: none), and the call
// itself, which ends in a Sync. A clean call leaves want in the buffer. A nil
// call sweeps a second OpenCUDA to the partition, beside the open stream — or,
// with reopen set, in its place: the open stream is closed first, and the
// successor gets a buffer of its own, an HtoD of want and a Sync.
type crashScenario struct {
	elems     int
	zcPayload int
	call      func(p *sim.Proc, conn *core.CUDAConn, buf uint64) error
	reopen    bool
	want      []byte
}

// handshake is one OpenCUDA with a zero-copy arena: local attestation, the
// ring's grant, dCheck, the executor, then the arena's grant.
func handshake() crashScenario {
	const n = 64
	return crashScenario{elems: n, zcPayload: 4 * n, want: ramp(n, 1)}
}

// closeReopen closes the open stream and opens another to the same
// partition: a handshake, a buffer, an HtoD and a Sync.
func closeReopen() crashScenario {
	const n = 64
	return crashScenario{elems: n, reopen: true, want: ramp(n, 3)}
}

// launchSync is one streamed Launch scaling the buffer, then a Sync.
func launchSync() crashScenario {
	const n = 64
	return crashScenario{
		elems: n,
		call: func(p *sim.Proc, conn *core.CUDAConn, buf uint64) error {
			if err := conn.Launch(p, "scale", gpu.Dim{n, 1, 1}, buf, uint64(gpu.FloatBits(sweepScale))); err != nil {
				return err
			}
			return conn.Sync(p)
		},
		want: ramp(n, sweepScale),
	}
}

// htodSync is one streamed 64 KiB HtoD — four ring-sized chunks — then a
// Sync.
func htodSync() crashScenario {
	const n = 16 << 10
	payload := ramp(n, 2)
	return crashScenario{
		elems: n,
		call: func(p *sim.Proc, conn *core.CUDAConn, buf uint64) error {
			if err := conn.HtoD(p, buf, payload); err != nil {
				return err
			}
			return conn.Sync(p)
		},
		want: payload,
	}
}

// execZCSync is one fused ExecZC — the payload staged in the arena, copied to
// the buffer and scaled there in one record — then a Sync. The executor's
// notification must report nil or ErrPeerFailed, and a Sync that succeeds
// must come after it.
func execZCSync() crashScenario {
	const n = 64
	payload := ramp(n, 2)
	return crashScenario{
		elems:     n,
		zcPayload: len(payload),
		call: func(p *sim.Proc, conn *core.CUDAConn, buf uint64) error {
			notified, zcErr := false, error(nil)
			err := conn.ExecZC(p, buf, payload, "scale", gpu.Dim{n, 1, 1},
				func(_ *sim.Proc, err error) { notified, zcErr = true, err },
				buf, uint64(gpu.FloatBits(sweepScale)))
			if err == nil {
				err = conn.Sync(p)
			}
			switch {
			case zcErr != nil && !errors.Is(zcErr, srpc.ErrPeerFailed):
				return fmt.Errorf("the ExecZC notification reported %w", zcErr)
			case err == nil && !notified:
				return errors.New("Sync returned before the ExecZC notification")
			case err == nil:
				return zcErr
			}
			return err
		},
		want: ramp(n, 2*sweepScale),
	}
}

// allocFreeSync allocates a second buffer, frees it and Syncs: the teardown
// of device memory. The stream's own buffer is left as it was.
func allocFreeSync() crashScenario {
	const n = 64
	return crashScenario{
		elems: n,
		call: func(p *sim.Proc, conn *core.CUDAConn, _ uint64) error {
			scratch, err := conn.MemAlloc(p, 4096)
			if err != nil {
				return err
			}
			if err := conn.MemFree(p, scratch); err != nil {
				return err
			}
			return conn.Sync(p)
		},
		want: ramp(n, 1),
	}
}

// crashPoint is what one run of a scenario reports: the events the call
// dispatched, whether the armed crash fired, the call's error and every
// violated invariant.
type crashPoint struct {
	events     uint64
	fired      bool
	err        error
	violations []string
}

// runCrashPoint boots a fresh platform, opens a CUDA stream on gpu-part0 with
// the scenario's buffer uploaded and — unless at is 0 — arms a crash of
// gpu-part0 before the at-th event of the scenario's call. After the call it
// checks the §IV-D contract at that crash point:
//
//   - the call returns nil or an error wrapping srpc.ErrPeerFailed; an
//     opening may also be refused with *spm.NotReadyError;
//   - the streams then report ErrPeerFailed and, having torn down, leave
//     the SPM no grant to the dead incarnation;
//   - after recovery a fresh OpenCUDA on the partition runs the same call
//     and reads back what it must produce;
//   - with the executors idle again, PhysMem.WatchCount is what it was
//     before the call: no doorbell outlived its waiter;
//   - once every stream is closed the session's enclave holds the trusted
//     pages it held before the first opening, and the run drains to
//     quiescence — Run returns with no process parked.
func runCrashPoint(sc crashScenario, at uint64) crashPoint {
	var cp crashPoint
	fail := func(format string, args ...any) { cp.violations = append(cp.violations, fmt.Sprintf(format, args...)) }
	k := sim.NewKernel()
	defer k.Shutdown()
	var setupErr error
	k.Spawn("main", func(p *sim.Proc) {
		pl, err := core.BuildPlatform(p, core.DefaultConfig())
		if err != nil {
			setupErr = err
			return
		}
		part := pl.GPUs[0].Part
		sess, err := pl.NewSession(p, "sweep")
		if err != nil {
			setupErr = err
			return
		}
		memUsed := sess.Owner().MemUsed()
		dial := func() (*core.CUDAConn, error) {
			return sess.OpenCUDA(p, core.CUDAOptions{
				Cubin: gpu.BuildCubin("scale"), Partition: part.Name, ZCPayload: sc.zcPayload,
			})
		}
		open := func() (*core.CUDAConn, uint64, error) {
			conn, err := dial()
			if err != nil {
				return nil, 0, err
			}
			buf, err := conn.MemAlloc(p, uint64(4*sc.elems))
			if err != nil {
				return nil, 0, err
			}
			return conn, buf, conn.HtoD(p, buf, ramp(sc.elems, 1))
		}
		// replace closes s and opens its successor, the reopen scenario's
		// call. The successor is returned once dialled, so a crash past
		// the dial still leaves it to tear down.
		replace := func(s *core.CUDAConn) (*core.CUDAConn, uint64, error) {
			if err := s.Close(p); err != nil {
				return nil, 0, err
			}
			next, err := dial()
			if err != nil {
				return nil, 0, err
			}
			nbuf, err := next.MemAlloc(p, uint64(4*sc.elems))
			if err == nil {
				err = next.HtoD(p, nbuf, sc.want)
			}
			if err == nil {
				err = next.Sync(p)
			}
			return next, nbuf, err
		}
		// settle lets the stream's executor go idle on its doorbell.
		settle := func() { p.Sleep(100 * sim.Microsecond) }
		conn, buf, err := open()
		if err == nil {
			err = conn.Sync(p)
		}
		if err != nil {
			setupErr = err
			return
		}
		settle()
		watches := pl.M.Mem.WatchCount()

		// streams are the ones the crash must leave dead: the open one and,
		// when the swept call is an opening that returned, its stream too —
		// or, when the call replaces the open stream, the successor alone.
		streams := []*core.CUDAConn{conn}
		call := func() error { return sc.call(p, conn, buf) }
		switch {
		case sc.reopen:
			call = func() error {
				streams = nil
				next, _, err := replace(conn)
				if next != nil {
					streams = append(streams, next)
				}
				return err
			}
		case sc.call == nil:
			call = func() error {
				second, err := dial()
				if err == nil {
					streams = append(streams, second)
				}
				return err
			}
		}
		start := k.Dispatched()
		if at > 0 {
			k.BeforeEvent(start+at, func() {
				cp.fired = true
				pl.SPM.Fail(part, spm.FailPanic)
			})
		}
		cp.err = call()
		cp.events = k.Dispatched() - start
		k.BeforeEvent(0, nil)
		if cp.err != nil && !isPeerFailed(cp.err) && (sc.call != nil || !isNotReady(cp.err)) {
			fail("the call returned %v, not nil or ErrPeerFailed", cp.err)
		}
		closeAll := func() {
			for _, s := range streams {
				if err := s.Close(p); err != nil {
					fail("close: %v", err)
				}
			}
			if got := sess.Owner().MemUsed(); got != memUsed {
				fail("the session's enclave holds %d bytes of trusted pages with every stream closed, %d before the first opening", got, memUsed)
			}
		}
		if at == 0 {
			closeAll()
			return
		}

		if err := pl.SPM.AwaitReady(p, part); err != nil {
			fail("gpu-part0 did not recover: %v", err)
			return
		}
		for _, s := range streams {
			if err := s.Sync(p); !isPeerFailed(err) {
				fail("a stream to the crashed partition answered %v, not ErrPeerFailed", err)
			}
		}
		if _, stale := pl.SPM.GrantsTo(part); stale != 0 {
			fail("the SPM holds %d grants to gpu-part0's dead incarnation", stale)
		}
		settle() // the mOS re-probes its device after a restart

		fresh, fbuf, err := open()
		switch {
		case err != nil:
		case sc.reopen:
			fresh, fbuf, err = replace(fresh)
		case sc.call != nil:
			err = sc.call(p, fresh, fbuf)
		}
		var out []byte
		if err == nil {
			out, err = fresh.DtoH(p, fbuf, 4*sc.elems)
		}
		if err != nil {
			fail("a fresh stream on the recovered partition failed: %v", err)
			return
		}
		if !bytes.Equal(out, sc.want) {
			fail("a fresh stream on the recovered partition read back the wrong bytes")
		}
		settle()
		if got := pl.M.Mem.WatchCount(); got != watches {
			fail("%d physical watches with the fresh stream idle, %d before the call", got, watches)
		}
		if err := fresh.Close(p); err != nil {
			fail("close: %v", err)
		}
		closeAll()
	})
	// No Stop: the run ends when the queue drains, and a process still
	// parked then is a DeadlockError naming it.
	if err := k.Run(); err != nil {
		fail("the run did not reach quiescence: %v", err)
	}
	if setupErr != nil {
		fail("setup: %v", setupErr)
	}
	return cp
}

// ramp is n float32s step, 2·step, …, n·step, packed.
func ramp(n int, step float32) []byte {
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = step * float32(i+1)
	}
	return gpu.Bytes(xs)
}

// sweepCrashPoints runs the scenario once clean to count its N events, then N
// more times, crashing gpu-part0 before event k for every k in 1..N. Every
// crash point must keep the contract runCrashPoint checks.
func sweepCrashPoints(t *testing.T, sc crashScenario) {
	clean := runCrashPoint(sc, 0)
	if clean.err != nil || len(clean.violations) > 0 {
		t.Fatalf("clean run: err %v, %v", clean.err, clean.violations)
	}
	n := clean.events
	if n < 4 {
		t.Fatalf("the clean call dispatched %d events: a vacuous sweep", n)
	}
	held, peerFailed, notReady := 0, 0, 0
	for at := uint64(1); at <= n; at++ {
		cp := runCrashPoint(sc, at)
		if !cp.fired {
			t.Errorf("crash point %d of %d: the armed crash never fired", at, n)
			continue
		}
		switch {
		case isPeerFailed(cp.err):
			peerFailed++
		case isNotReady(cp.err):
			notReady++
		}
		for _, v := range cp.violations {
			t.Errorf("crash point %d of %d: %s", at, n, v)
		}
		if len(cp.violations) == 0 {
			held++
		}
	}
	t.Logf("%d of %d crash points hold (calls returned ErrPeerFailed %d, NotReadyError %d, nil %d)",
		held, n, peerFailed, notReady, int(n)-peerFailed-notReady)
}

func isNotReady(err error) bool {
	var notReady *spm.NotReadyError
	return errors.As(err, &notReady)
}

func isPeerFailed(err error) bool { return errors.Is(err, srpc.ErrPeerFailed) }

// TestCrashPointSweepLaunchSync sweeps a streamed Launch + Sync.
func TestCrashPointSweepLaunchSync(t *testing.T) { sweepCrashPoints(t, launchSync()) }

// TestCrashPointSweepHtoDSync sweeps a streamed 64 KiB HtoD + Sync.
func TestCrashPointSweepHtoDSync(t *testing.T) { sweepCrashPoints(t, htodSync()) }

// TestCrashPointSweepExecZCSync sweeps a fused ExecZC + Sync.
func TestCrashPointSweepExecZCSync(t *testing.T) { sweepCrashPoints(t, execZCSync()) }

// TestCrashPointSweepMemAllocFree sweeps a cuMemAlloc, a cuMemFree and a Sync.
func TestCrashPointSweepMemAllocFree(t *testing.T) { sweepCrashPoints(t, allocFreeSync()) }

// TestCrashPointSweepHandshake sweeps the opening of a stream with an arena.
func TestCrashPointSweepHandshake(t *testing.T) { sweepCrashPoints(t, handshake()) }

// TestCrashPointSweepCloseReopen sweeps the close of the open stream, the
// opening of its successor to the same partition, an HtoD and a Sync.
func TestCrashPointSweepCloseReopen(t *testing.T) { sweepCrashPoints(t, closeReopen()) }

// holdHandshakeCrash crashes gpu-part0 at each of the handshake's points,
// which must refuse the opening as want says and keep the contract.
func holdHandshakeCrash(t *testing.T, want func(error) bool, points ...uint64) {
	t.Helper()
	for _, at := range points {
		cp := runCrashPoint(handshake(), at)
		if !cp.fired || !want(cp.err) {
			t.Errorf("crash point %d: fired %v, the opening returned %v", at, cp.fired, cp.err)
		}
		for _, v := range cp.violations {
			t.Errorf("crash point %d: %s", at, v)
		}
	}
}

// TestHandshakeCrashInStreamSetupUnsharesRing: the peer dies while it handles
// the stream setup, after the ring was shared with it. Connect's refusal
// dissolves the ring's grant.
func TestHandshakeCrashInStreamSetupUnsharesRing(t *testing.T) {
	holdHandshakeCrash(t, isPeerFailed, 11, 12, 13)
}

// TestHandshakeCrashBeforeArenaShareAbandonsRing: the arena's share is refused
// with the ring already connected. OpenCUDA abandons the ring it opened.
func TestHandshakeCrashBeforeArenaShareAbandonsRing(t *testing.T) {
	holdHandshakeCrash(t, isNotReady, 14, 15, 16)
}

// TestHandshakeCrashInArenaHeaderRevokesArena: the arena is shared but its
// geometry cannot be published. The stream's teardown revokes the arena's
// grant along with the ring's.
func TestHandshakeCrashInArenaHeaderRevokesArena(t *testing.T) {
	holdHandshakeCrash(t, isPeerFailed, 17, 18, 19)
}

// runNPUCrashPoint boots a fresh platform and a session with one NPU stream
// open, then opens a second stream to npu-part0 beside it and runs a MemAlloc,
// an HtoD and a Sync on it — crashing npu-part0 before the at-th event of
// that call unless at is 0. The call must return nil, ErrPeerFailed or
// *spm.NotReadyError; once the partition is back and both streams are closed,
// the session's enclave must hold the trusted pages it held before the first
// opening, and the run must drain to quiescence.
func runNPUCrashPoint(at uint64) crashPoint {
	var cp crashPoint
	fail := func(format string, args ...any) { cp.violations = append(cp.violations, fmt.Sprintf(format, args...)) }
	k := sim.NewKernel()
	defer k.Shutdown()
	k.Spawn("main", func(p *sim.Proc) {
		pl, err := core.BuildPlatform(p, core.DefaultConfig())
		if err != nil {
			fail("setup: %v", err)
			return
		}
		part := pl.NPUs[0].Part
		sess, err := pl.NewSession(p, "npu-sweep")
		if err != nil {
			fail("setup: %v", err)
			return
		}
		memUsed := sess.Owner().MemUsed()
		first, err := sess.OpenNPU(p, core.NPUOptions{Name: "npu-sweep/a"})
		if err != nil {
			fail("setup: %v", err)
			return
		}
		streams := []*core.NPUConn{first}
		start := k.Dispatched()
		if at > 0 {
			k.BeforeEvent(start+at, func() {
				cp.fired = true
				pl.SPM.Fail(part, spm.FailPanic)
			})
		}
		cp.err = func() error {
			second, err := sess.OpenNPU(p, core.NPUOptions{Name: "npu-sweep/b"})
			if err != nil {
				return err
			}
			streams = append(streams, second)
			buf, err := second.MemAlloc(p, 256)
			if err == nil {
				err = second.HtoD(p, buf, ramp(64, 1))
			}
			if err == nil {
				err = second.Sync(p)
			}
			return err
		}()
		cp.events = k.Dispatched() - start
		k.BeforeEvent(0, nil)
		if cp.err != nil && !isPeerFailed(cp.err) && !isNotReady(cp.err) {
			fail("the call returned %v, not nil, ErrPeerFailed or NotReadyError", cp.err)
		}
		if at > 0 {
			if err := pl.SPM.AwaitReady(p, part); err != nil {
				fail("npu-part0 did not recover: %v", err)
				return
			}
		}
		for _, s := range streams {
			if err := s.Close(p); err != nil {
				fail("close: %v", err)
			}
		}
		if got := sess.Owner().MemUsed(); got != memUsed {
			fail("the session's enclave holds %d bytes of trusted pages with every stream closed, %d before the first opening", got, memUsed)
		}
	})
	if err := k.Run(); err != nil {
		fail("the run did not reach quiescence: %v", err)
	}
	return cp
}

// TestCrashPointSweepNPUOpenAllocHtoD crashes npu-part0 before every event of
// an OpenNPU beside an open NPU stream, a MemAlloc, an HtoD and a Sync.
func TestCrashPointSweepNPUOpenAllocHtoD(t *testing.T) {
	clean := runNPUCrashPoint(0)
	if clean.err != nil || len(clean.violations) > 0 {
		t.Fatalf("clean run: err %v, %v", clean.err, clean.violations)
	}
	n := clean.events
	if n < 4 {
		t.Fatalf("the clean call dispatched %d events: a vacuous sweep", n)
	}
	held, peerFailed, notReady := 0, 0, 0
	for at := uint64(1); at <= n; at++ {
		cp := runNPUCrashPoint(at)
		if !cp.fired {
			t.Errorf("crash point %d of %d: the armed crash never fired", at, n)
		}
		switch {
		case isPeerFailed(cp.err):
			peerFailed++
		case isNotReady(cp.err):
			notReady++
		}
		for _, v := range cp.violations {
			t.Errorf("crash point %d of %d: %s", at, n, v)
		}
		if cp.fired && len(cp.violations) == 0 {
			held++
		}
	}
	t.Logf("%d of %d crash points hold (calls returned ErrPeerFailed %d, NotReadyError %d, nil %d)",
		held, n, peerFailed, notReady, int(n)-peerFailed-notReady)
}
