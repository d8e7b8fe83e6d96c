package srpc_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cronus/internal/attest"
	"cronus/internal/core"
	"cronus/internal/enclave"
	"cronus/internal/gpu"
	"cronus/internal/hw"
	"cronus/internal/mos"
	"cronus/internal/mos/driver"
	"cronus/internal/normal"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/srpc"
	"cronus/internal/wire"
)

// harness wires a CPU owner enclave and a CUDA callee enclave through the
// platform's dispatcher, mirroring the paper's Figure 4 partitioned
// application.
type harness struct {
	pl    *core.Platform
	owner *mos.Enclave // mE_A (CPU)
	eidB  uint32       // mE_C (CUDA)
	secB  []byte       // secret_dhke with mE_C
	edlB  *enclave.EDL
	wantB srpc.Expected
}

func cpuOwnerManifest() (enclave.Manifest, map[string][]byte) {
	files := map[string][]byte{
		"app.edl": enclave.BuildEDL(enclave.MECallSpec{Name: "main", Async: false}),
		"app.so":  enclave.BuildCPUImage("srpc-test-app"),
	}
	return enclave.NewManifest("cpu", "app.edl", "app.so", files, enclave.Resources{Memory: "4M"}), files
}

func cudaManifest() (enclave.Manifest, map[string][]byte) {
	files := map[string][]byte{
		"cuda.edl":  driver.CUDAEDL(),
		"mat.cubin": gpu.BuildCubin("vec_add", "matmul", "saxpy"),
	}
	return enclave.NewManifest("gpu", "cuda.edl", "mat.cubin", files, enclave.Resources{Memory: "64M"}), files
}

func init() {
	enclave.RegisterCPULibrary(&enclave.CPULibrary{
		Name:  "srpc-test-app",
		Funcs: map[string]enclave.CPUFunc{"main": func(*sim.Proc, []byte) ([]byte, error) { return nil, nil }},
	})
}

// setup builds both enclaves on a booted platform and returns the harness.
func setup(p *sim.Proc, pl *core.Platform) (*harness, error) {
	manA, filesA := cpuOwnerManifest()
	dhA, err := attest.NewDHKey([]byte("app"))
	if err != nil {
		return nil, err
	}
	resA, encA, err := pl.CPUOS.EM.Create(p, "mE-A", manA, filesA, dhA.Pub)
	if err != nil {
		return nil, err
	}
	_ = resA

	// mE_A creates the CUDA enclave through the dispatcher.
	manB, filesB := cudaManifest()
	dhAB, err := attest.NewDHKey([]byte("mE-A-to-C"))
	if err != nil {
		return nil, err
	}
	resB, err := pl.D.CreateEnclave(p, "mE-C", manB, filesB, dhAB.Pub)
	if err != nil {
		return nil, err
	}
	secret, err := dhAB.Shared(resB.DHPub)
	if err != nil {
		return nil, err
	}
	edl, err := enclave.ParseEDL(filesB["cuda.edl"])
	if err != nil {
		return nil, err
	}
	return &harness{
		pl:    pl,
		owner: encA,
		eidB:  resB.EID,
		secB:  secret,
		edlB:  edl,
		wantB: srpc.Expected{EnclaveHash: manB.Measure(filesB), MOSHash: pl.GPUs[0].Part.MOSHash()},
	}, nil
}

func run(t *testing.T, body func(h *harness, p *sim.Proc) error) {
	t.Helper()
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		h, err := setup(p, pl)
		if err != nil {
			return err
		}
		return body(h, p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// on is a normal OS that plays f on every call of kind and relays the others.
func on(kind spm.CallKind, f normal.RelayFunc) normal.Adversary {
	return normal.RelayFunc(func(p *sim.Proc, c spm.Call, gate normal.Gate) (spm.Reply, error) {
		if c.Kind != kind {
			return gate(p, c)
		}
		return f(p, c, gate)
	})
}

func (h *harness) connect(p *sim.Proc) (*srpc.Client, error) {
	return srpc.Connect(p, h.owner, h.eidB, h.secB, h.edlB, h.wantB, h.pl.D, 0)
}

func TestStreamEndToEndCompute(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
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
		// Async stream: two copies and a launch, no waiting.
		if _, err := c.Call(p, driver.CallHtoD, driver.EncodeHtoD(a, gpu.Bytes([]float32{1, 2, 3, 4}))); err != nil {
			return err
		}
		if _, err := c.Call(p, driver.CallHtoD, driver.EncodeHtoD(b, gpu.Bytes([]float32{5, 6, 7, 8}))); err != nil {
			return err
		}
		if _, err := c.Call(p, driver.CallLaunch, driver.EncodeLaunch(new(wire.Encoder), "vec_add", gpu.Dim{4, 1, 1}, a, b, cc)); err != nil {
			return err
		}
		// Sync call returns the data (implicit streamCheck ordering).
		res, err := c.Call(p, driver.CallDtoH, driver.EncodeDtoH(cc, 16))
		if err != nil {
			return err
		}
		blob, _ := driver.DecodeBlob(res)
		got := gpu.UnpackF32(blob)
		want := []float32{6, 8, 10, 12}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("result %v, want %v", got, want)
				break
			}
		}
		return c.Close(p)
	})
}

func TestAsyncCallsDoNotBlock(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		// 1 MiB payload needs a ring bigger than the default 64 KiB.
		c, err := srpc.Connect(p, h.owner, h.eidB, h.secB, h.edlB, h.wantB, h.pl.D, 300)
		if err != nil {
			return err
		}
		res, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(256*256*4*3))
		if err != nil {
			return err
		}
		base, _ := driver.DecodePtr(res)
		a, b, cc := base, base+256*256*4, base+2*256*256*4
		// A 256³ matmul costs milliseconds of device time; the async
		// launch must return after only the enqueue cost.
		start := p.Now()
		if _, err := c.Call(p, driver.CallLaunch, driver.EncodeLaunch(new(wire.Encoder), "matmul", gpu.Dim{256, 256, 1}, a, b, cc, 256, 256, 256)); err != nil {
			return err
		}
		enqueue := sim.Duration(p.Now() - start)
		if enqueue > 100*sim.Microsecond {
			t.Errorf("async launch enqueue took %v (not streaming)", enqueue)
		}
		// Barrier waits for the kernel (streamCheck).
		if err := c.Barrier(p); err != nil {
			return err
		}
		if total := sim.Duration(p.Now() - start); total < 10*enqueue {
			t.Errorf("barrier returned after %v; kernel cannot have run", total)
		}
		return c.Close(p)
	})
}

func TestOrderingPreservedAcrossAsyncCalls(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		res, _ := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(4))
		ptr, _ := driver.DecodePtr(res)
		// 20 async overwrites; the final sync read must observe the last.
		for i := 1; i <= 20; i++ {
			if _, err := c.Call(p, driver.CallHtoD, driver.EncodeHtoD(ptr, gpu.Bytes([]float32{float32(i)}))); err != nil {
				return err
			}
		}
		out, err := c.Call(p, driver.CallDtoH, driver.EncodeDtoH(ptr, 4))
		if err != nil {
			return err
		}
		blob, _ := driver.DecodeBlob(out)
		if v := gpu.UnpackF32(blob)[0]; v != 20 {
			t.Errorf("final value %v, want 20 (RPCs reordered?)", v)
		}
		return c.Close(p)
	})
}

func TestStickyAsyncErrorSurfacesAtSyncPoint(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		// Async launch of a kernel that is not loaded fails in the
		// executor; the error must surface at the next barrier.
		if _, err := c.Call(p, driver.CallLaunch, driver.EncodeLaunch(new(wire.Encoder), "reduce_sum", gpu.Dim{1, 1, 1}, 0, 0)); err != nil {
			return err // enqueue itself must succeed
		}
		err = c.Barrier(p)
		if err == nil || !strings.Contains(err.Error(), "not loaded") {
			t.Errorf("barrier err = %v, want sticky launch failure", err)
		}
		// The stream stays usable after consuming the sticky error.
		if _, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(16)); err != nil {
			t.Errorf("stream dead after sticky error: %v", err)
		}
		return c.Close(p)
	})
}

func TestLargePayloadSpansSlots(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		res, _ := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(48<<10))
		ptr, _ := driver.DecodePtr(res)
		payload := make([]byte, 20<<10) // 10 slots
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		if _, err := c.Call(p, driver.CallHtoD, driver.EncodeHtoD(ptr, payload)); err != nil {
			return err
		}
		out, err := c.CallSyncCap(p, driver.CallDtoH, driver.EncodeDtoH(ptr, uint64(len(payload))), len(payload)+64)
		if err != nil {
			return err
		}
		blob, _ := driver.DecodeBlob(out)
		if len(blob) != len(payload) {
			t.Fatalf("got %d bytes back, want %d", len(blob), len(payload))
		}
		for i := range blob {
			if blob[i] != payload[i] {
				t.Fatalf("byte %d corrupted through the ring", i)
			}
		}
		return c.Close(p)
	})
}

func TestFlowControlWhenRingFull(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		res, _ := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(1<<20))
		ptr, _ := driver.DecodePtr(res)
		// Push far more async bytes than the ring holds: flow control
		// must block-and-drain rather than corrupt or fail.
		chunk := make([]byte, 8<<10)
		for i := 0; i < 40; i++ {
			if _, err := c.Call(p, driver.CallHtoD, driver.EncodeHtoD(ptr, chunk)); err != nil {
				return err
			}
		}
		return c.Close(p)
	})
}

func TestEDLUnknownCallRejectedClientSide(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		if _, err := c.Call(p, "cuEvilExfiltrate", nil); err == nil {
			t.Error("call outside EDL accepted")
		}
		return c.Close(p)
	})
}

func TestConnectRejectsSubstitutedEnclaveMeasurement(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		bad := h.wantB
		bad.EnclaveHash = attest.Measure([]byte("some other image"))
		_, err := srpc.Connect(p, h.owner, h.eidB, h.secB, h.edlB, bad, h.pl.D, 0)
		if err == nil || !strings.Contains(err.Error(), "measurement mismatch") {
			t.Errorf("err = %v, want measurement mismatch", err)
		}
		return nil
	})
}

func TestConnectRejectsForgedLocalReport(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		// The malicious OS forges a local report (it cannot: no LSK).
		h.pl.D.Adversary = on(spm.CallLocalReport, func(_ *sim.Proc, c spm.Call, _ normal.Gate) (spm.Reply, error) {
			r := attest.LocalReport{EnclaveID: c.EID, EnclaveHash: h.wantB.EnclaveHash, MOSHash: h.wantB.MOSHash, Nonce: c.Nonce}
			fake := attest.NewLocalSealer([]byte("attacker guess"))
			return spm.Reply{Local: r, MAC: fake.Seal(r)}, nil
		})
		_, err := h.connect(p)
		if !errors.Is(err, srpc.ErrForgedReport) || !strings.Contains(err.Error(), "SPM") {
			t.Errorf("err = %v, want LSK verification failure", err)
		}
		return nil
	})
}

func TestSetupTamperAndReplayDetected(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		h.pl.D.Adversary = on(spm.CallStreamSetup, func(p *sim.Proc, c spm.Call, gate normal.Gate) (spm.Reply, error) {
			c.Msg.Payload = append([]byte(nil), c.Msg.Payload...)
			c.Msg.Payload[0] ^= 0xff
			return gate(p, c)
		})
		if _, err := h.connect(p); !errors.Is(err, attest.ErrTampered) {
			t.Errorf("tampered setup: err %v, want attest.ErrTampered", err)
		}
		// A legitimate connect's setup is recorded; the next connect's is
		// replaced by it, which the server refuses as a replay.
		var last *spm.Call
		h.pl.D.Adversary = on(spm.CallStreamSetup, func(p *sim.Proc, c spm.Call, gate normal.Gate) (spm.Reply, error) {
			if last != nil {
				return gate(p, *last)
			}
			last = &c
			return gate(p, c)
		})
		good, err := h.connect(p)
		if err != nil {
			return err
		}
		defer good.Close(p)
		if _, err := h.connect(p); !errors.Is(err, attest.ErrReplayed) {
			t.Errorf("replayed setup: err %v, want attest.ErrReplayed", err)
		}
		h.pl.D.Adversary = nil
		return nil
	})
}

func TestDroppedExecutorFailsEstablishment(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		h.pl.D.Adversary = on(spm.CallSpawnExecutor, func(*sim.Proc, spm.Call, normal.Gate) (spm.Reply, error) {
			return spm.Reply{}, normal.ErrDropped
		})
		if _, err := h.connect(p); !errors.Is(err, normal.ErrDropped) {
			t.Error("connect succeeded without an executor")
		}
		return nil
	})
}

func TestPeerPartitionFailureTearsDownStream(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		if _, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(16)); err != nil {
			return err
		}
		// The GPU partition crashes (malicious or buggy).
		h.pl.SPM.Fail(h.pl.GPUs[0].Part, spm.FailPanic)
		// The owner's next stream access traps and the stream reports
		// the failure instead of deadlocking (A2) or silently writing
		// into a substituted partition (A1).
		_, err = c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(16))
		if !errors.Is(err, srpc.ErrPeerFailed) {
			t.Errorf("call after peer failure: err = %v, want ErrPeerFailed", err)
		}
		if !c.Dead() {
			t.Error("stream not marked dead")
		}
		// Later calls fail fast.
		if _, err := c.Call(p, driver.CallSync, nil); !errors.Is(err, srpc.ErrPeerFailed) {
			t.Errorf("second call: err = %v", err)
		}
		return nil
	})
}

func TestOwnerCanRebuildAfterPeerRecovery(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		h.pl.SPM.Fail(h.pl.GPUs[0].Part, spm.FailPanic)
		if _, err := c.Call(p, driver.CallSync, nil); !errors.Is(err, srpc.ErrPeerFailed) {
			t.Errorf("err = %v", err)
		}
		h.pl.SPM.AwaitReady(p, h.pl.GPUs[0].Part)
		p.Sleep(sim.Millisecond) // let mOS reinit run
		// Recreate the enclave (the task is resubmitted, §VI-D) and
		// connect a fresh stream.
		manB, filesB := cudaManifest()
		dh, _ := attest.NewDHKey([]byte("retry"))
		resB, err := h.pl.D.CreateEnclave(p, "mE-C2", manB, filesB, dh.Pub)
		if err != nil {
			return err
		}
		sec, _ := dh.Shared(resB.DHPub)
		c2, err := srpc.Connect(p, h.owner, resB.EID, sec, h.edlB,
			srpc.Expected{EnclaveHash: manB.Measure(filesB), MOSHash: h.pl.GPUs[0].Part.MOSHash()}, h.pl.D, 0)
		if err != nil {
			return err
		}
		if _, err := c2.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(16)); err != nil {
			return err
		}
		return c2.Close(p)
	})
}

func TestEnclaveFailureNotifiesOwner(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		if _, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(16)); err != nil {
			return err
		}
		// Only the callee mEnclave dies (not the partition). Note the
		// grant is owned by mE_A; enclave-level kill revokes via the EM.
		srv := h.pl.Server(h.eidB)
		srv.Enclave().Kill(p)
		_, err = c.Call(p, driver.CallDtoH, driver.EncodeDtoH(0, 4))
		if err == nil {
			t.Error("call to killed enclave succeeded")
		}
		return nil
	})
}

func TestCloseStopsExecutor(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		if _, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(16)); err != nil {
			return err
		}
		if err := c.Close(p); err != nil {
			return err
		}
		// Calls after close fail.
		if _, err := c.Call(p, driver.CallSync, nil); !errors.Is(err, srpc.ErrStreamClosed) {
			t.Errorf("err = %v, want ErrStreamClosed", err)
		}
		return nil
		// The executor proc exits on its own; kernel.Run would report a
		// deadlock otherwise.
	})
}

func TestTwoStreamsOneCalleeInterleave(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		// A second CUDA enclave in the same partition, each with its own
		// stream (multi-threading: one stream per thread, §IV-C).
		manB, filesB := cudaManifest()
		dh2, _ := attest.NewDHKey([]byte("second"))
		res2, err := h.pl.D.CreateEnclave(p, "mE-C2", manB, filesB, dh2.Pub)
		if err != nil {
			return err
		}
		sec2, _ := dh2.Shared(res2.DHPub)
		c1, err := h.connect(p)
		if err != nil {
			return err
		}
		c2, err := srpc.Connect(p, h.owner, res2.EID, sec2, h.edlB,
			srpc.Expected{EnclaveHash: manB.Measure(filesB), MOSHash: h.pl.GPUs[0].Part.MOSHash()}, h.pl.D, 0)
		if err != nil {
			return err
		}
		r1, _ := c1.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(16))
		r2, _ := c2.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(16))
		p1, _ := driver.DecodePtr(r1)
		p2, _ := driver.DecodePtr(r2)
		c1.Call(p, driver.CallHtoD, driver.EncodeHtoD(p1, gpu.Bytes([]float32{1, 1, 1, 1})))
		c2.Call(p, driver.CallHtoD, driver.EncodeHtoD(p2, gpu.Bytes([]float32{2, 2, 2, 2})))
		o1, err := c1.Call(p, driver.CallDtoH, driver.EncodeDtoH(p1, 16))
		if err != nil {
			return err
		}
		o2, err := c2.Call(p, driver.CallDtoH, driver.EncodeDtoH(p2, 16))
		if err != nil {
			return err
		}
		b1, _ := driver.DecodeBlob(o1)
		b2, _ := driver.DecodeBlob(o2)
		if gpu.UnpackF32(b1)[0] != 1 || gpu.UnpackF32(b2)[0] != 2 {
			t.Error("streams interfered with each other")
		}
		c1.Close(p)
		c2.Close(p)
		return nil
	})
}

func TestSRPCBeatsLockStepLatency(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		// Stream 50 async calls via sRPC.
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		res, _ := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(64))
		ptr, _ := driver.DecodePtr(res)
		data := gpu.Bytes(make([]float32, 16))
		start := p.Now()
		for i := 0; i < 50; i++ {
			if _, err := c.Call(p, driver.CallHtoD, driver.EncodeHtoD(ptr, data)); err != nil {
				return err
			}
		}
		if err := c.Barrier(p); err != nil {
			return err
		}
		srpcTime := p.Now() - start
		c.Close(p)

		// Same 50 calls via the lock-step sealed path (owner channels).
		manB, filesB := cudaManifest()
		dh, _ := attest.NewDHKey([]byte("lockstep"))
		resB, err := h.pl.D.CreateEnclave(p, "mE-lock", manB, filesB, dh.Pub)
		if err != nil {
			return err
		}
		sec, _ := dh.Shared(resB.DHPub)
		tx := attest.NewChannel(sec, "owner->enclave")
		rx := attest.NewChannel(sec, "enclave->owner")
		reply, err := h.pl.D.InvokeSealed(p, resB.EID, mos.SealRequest(tx, new(wire.Encoder), driver.CallMemAlloc, driver.EncodeMemAlloc(64)))
		if err != nil {
			return err
		}
		out, err := mos.OpenReply(rx, reply)
		if err != nil {
			return err
		}
		lptr, _ := driver.DecodePtr(out)
		start = p.Now()
		for i := 0; i < 50; i++ {
			reply, err := h.pl.D.InvokeSealed(p, resB.EID, mos.SealRequest(tx, new(wire.Encoder), driver.CallHtoD, driver.EncodeHtoD(lptr, data)))
			if err != nil {
				return err
			}
			if _, err := mos.OpenReply(rx, reply); err != nil {
				return err
			}
		}
		lockTime := p.Now() - start
		if float64(lockTime) < 1.5*float64(srpcTime) {
			t.Errorf("sRPC %v vs lock-step %v: expected streaming to be much faster", srpcTime, lockTime)
		}
		return nil
	})
}

func TestTwoStreamsToTheSameEnclave(t *testing.T) {
	// §IV-C: "To support multi-threading, CRONUS makes each thread create
	// its own stream." Two streams from the same owner to the SAME callee
	// must establish and operate independently.
	run(t, func(h *harness, p *sim.Proc) error {
		c1, err := h.connect(p)
		if err != nil {
			return err
		}
		c2, err := h.connect(p)
		if err != nil {
			return fmt.Errorf("second stream to the same enclave failed: %w", err)
		}
		r1, err := c1.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(16))
		if err != nil {
			return err
		}
		r2, err := c2.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(16))
		if err != nil {
			return err
		}
		p1, _ := driver.DecodePtr(r1)
		p2, _ := driver.DecodePtr(r2)
		if p1 == p2 {
			t.Error("both streams returned the same allocation")
		}
		if err := c1.Close(p); err != nil {
			return err
		}
		// Closing one stream must not affect the other.
		if _, err := c2.Call(p, driver.CallSync, nil); err != nil {
			t.Errorf("surviving stream broken after sibling close: %v", err)
		}
		return c2.Close(p)
	})
}

func TestDuplicateExecutorSpawnIsHarmless(t *testing.T) {
	// A malicious OS spawning a second executor for a live stream must
	// not reset Sid / re-execute records.
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		res, _ := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(4))
		ptr, _ := driver.DecodePtr(res)
		if _, err := c.Call(p, driver.CallHtoD, driver.EncodeHtoD(ptr, gpu.Bytes([]float32{42}))); err != nil {
			return err
		}
		if err := c.Barrier(p); err != nil {
			return err
		}
		// Attacker duplicates the executor (stream id 1 belongs to this
		// stream: the platform mints ids from 1 and this is its only stream).
		_ = h.pl.D.SpawnExecutor(p, h.eidB, 1)
		p.Sleep(10 * sim.Microsecond)
		// The stream still behaves: one more overwrite, one read.
		if _, err := c.Call(p, driver.CallHtoD, driver.EncodeHtoD(ptr, gpu.Bytes([]float32{43}))); err != nil {
			return err
		}
		out, err := c.Call(p, driver.CallDtoH, driver.EncodeDtoH(ptr, 4))
		if err != nil {
			return err
		}
		blob, _ := driver.DecodeBlob(out)
		if v := gpu.UnpackF32(blob)[0]; v != 43 {
			t.Errorf("value %v after duplicate-executor attack, want 43", v)
		}
		return c.Close(p)
	})
}

// Property: an arbitrary interleaving of asynchronous writes, synchronous
// reads and barriers through the ring behaves exactly like a flat byte
// array (the shadow model) — slot spanning, wrap-around and flow control
// included.
func TestStreamRandomOpsProperty(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := srpc.Connect(p, h.owner, h.eidB, h.secB, h.edlB, h.wantB, h.pl.D, 33)
		if err != nil {
			return err
		}
		defer c.Close(p)
		const bufSize = 64 << 10
		res, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(bufSize))
		if err != nil {
			return err
		}
		ptr, _ := driver.DecodePtr(res)
		shadow := make([]byte, bufSize)
		rng := rand.New(rand.NewSource(20220815))
		for op := 0; op < 120; op++ {
			switch rng.Intn(5) {
			case 0, 1, 2: // async write
				n := 1 + rng.Intn(20<<10)
				off := rng.Intn(bufSize - n)
				data := make([]byte, n)
				rng.Read(data)
				if _, err := c.Call(p, driver.CallHtoD, driver.EncodeHtoD(ptr+uint64(off), data)); err != nil {
					return fmt.Errorf("op %d write: %w", op, err)
				}
				copy(shadow[off:], data)
			case 3: // sync read + compare
				n := 1 + rng.Intn(20<<10)
				off := rng.Intn(bufSize - n)
				out, err := c.CallSyncCap(p, driver.CallDtoH, driver.EncodeDtoH(ptr+uint64(off), uint64(n)), n+64)
				if err != nil {
					return fmt.Errorf("op %d read: %w", op, err)
				}
				blob, err := driver.DecodeBlob(out)
				if err != nil {
					return err
				}
				if !bytes.Equal(blob, shadow[off:off+n]) {
					t.Fatalf("op %d: device bytes diverged from the shadow at [%d,%d)", op, off, off+n)
				}
			case 4: // barrier
				if err := c.Barrier(p); err != nil {
					return fmt.Errorf("op %d barrier: %w", op, err)
				}
			}
		}
		// Final full comparison.
		out, err := c.CallSyncCap(p, driver.CallDtoH, driver.EncodeDtoH(ptr, bufSize), bufSize+64)
		if err != nil {
			return err
		}
		blob, _ := driver.DecodeBlob(out)
		if !bytes.Equal(blob, shadow) {
			t.Fatal("final device state diverged from the shadow")
		}
		return nil
	})
}

// BenchmarkStreamAsyncCall measures one streamed (async) mECall through the
// full stack: ring push, executor dispatch, device no-op.
func BenchmarkStreamAsyncCall(b *testing.B) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		h, err := setup(p, pl)
		if err != nil {
			return err
		}
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		defer c.Close(p)
		res, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(64))
		if err != nil {
			return err
		}
		ptr, _ := driver.DecodePtr(res)
		args := driver.EncodeHtoD(ptr, make([]byte, 64))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Call(p, driver.CallHtoD, args); err != nil {
				return err
			}
		}
		return c.Barrier(p)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStreamSyncCall measures one synchronous mECall round trip
// (push, executor dispatch, result publish, wait).
func BenchmarkStreamSyncCall(b *testing.B) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		h, err := setup(p, pl)
		if err != nil {
			return err
		}
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		defer c.Close(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Call(p, driver.CallSync, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestRecordBytesOnRing pins the ring format across the piecewise write: a
// record pushed as header scratch + head + bulk must leave exactly the bytes
// the single-buffer encoding wire(len, kind, slots, respCap | name | args)
// put there, slot by slot, including where the record wraps the ring.
func TestRecordBytesOnRing(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		res, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(32<<10))
		if err != nil {
			return err
		}
		dst, _ := driver.DecodePtr(res)
		rng := rand.New(rand.NewSource(15))
		ringSlots := uint64((srpc.DefaultPages - 1) * 4096 / srpc.SlotSize)
		wrapped := false
		// Sizes that end inside a slot, on a slot boundary (2048·k − 44 bytes
		// of data), and that walk the 32-slot ring past its end twice.
		for _, n := range []int{0, 1, 300, 2048 - 44, 2048 - 43, 5000, 4096 - 44, 16 << 10, 9000, 16 << 10, 16 << 10, 12345, 16 << 10} {
			data := make([]byte, n)
			rng.Read(data)
			slot := c.NextSlot()
			head := driver.HtoDHead(dst, n)
			if _, err := c.CallVec(p, driver.CallHtoD, head[:], data); err != nil {
				return err
			}
			args := driver.EncodeHtoD(dst, data)
			payload := wire.NewEncoder().Str(driver.CallHtoD).Blob(args).Bytes()
			slots := c.NextSlot() - slot
			want := append(wire.NewEncoder().U32(uint32(len(payload))).U32(0).U32(uint32(slots)).U32(0).Bytes(), payload...)
			if slots != uint64((len(want)+srpc.SlotSize-1)/srpc.SlotSize) {
				t.Fatalf("%d-byte HtoD took %d slots for a %d-byte record", n, slots, len(want))
			}
			if slot%ringSlots+slots > ringSlots {
				wrapped = true
			}
			got, err := c.ReadRecordBySlots(p, slot, len(want))
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%d-byte HtoD at slot %d: ring holds different bytes than the single-buffer encoding", n, slot)
			}
			if err := c.Barrier(p); err != nil {
				return err
			}
		}
		if !wrapped {
			t.Error("no record wrapped the ring; the sizes above no longer cover the wrap")
		}
		return c.Close(p)
	})
}

// TestClosedStreamsReturnTheirPages: one owner opens and closes 10,000
// streams, every other one with a payload arena — far more than its 4M memory
// cap holds at once — and ends with the grants and the cap it started with.
// Each Close raises one isolation-change notification per grant it dissolves,
// none for the pages it frees.
func TestClosedStreamsReturnTheirPages(t *testing.T) {
	const streams = 10000
	run(t, func(h *harness, p *sim.Proc) error {
		sp := h.owner.MOS().SPM
		ownerPart, peerPart := h.owner.MOS().Part, h.pl.GPUs[0].Part
		owner0, _ := sp.GrantsTo(ownerPart)
		peer0, _ := sp.GrantsTo(peerPart)
		notes := 0
		sp.OnIsolationChange(func() { notes++ })
		for i := 0; i < streams; i++ {
			c, err := h.connect(p)
			if err != nil {
				return fmt.Errorf("open %d: %w", i, err)
			}
			grants := 1
			if i%2 == 1 {
				if err := c.GrantArena(p, 64); err != nil {
					return fmt.Errorf("arena %d: %w", i, err)
				}
				grants++
			}
			notes = 0
			if err := c.Close(p); err != nil {
				return fmt.Errorf("close %d: %w", i, err)
			}
			if notes != grants {
				t.Errorf("close %d raised %d isolation-change notifications, want %d", i, notes, grants)
			}
		}
		if cur, stale := sp.GrantsTo(ownerPart); cur != owner0 || stale != 0 {
			t.Errorf("owner partition: %d current and %d stale grants, want %d and 0", cur, stale, owner0)
		}
		if cur, stale := sp.GrantsTo(peerPart); cur != peer0 || stale != 0 {
			t.Errorf("peer partition: %d current and %d stale grants, want %d and 0", cur, stale, peer0)
		}
		// The cap is back where it started: all of it allocates, a page more does not.
		if _, err := h.owner.AllocShared(p, 4<<20/hw.PageSize); err != nil {
			t.Errorf("the whole cap after %d closed streams: %v", streams, err)
		}
		if _, err := h.owner.AllocShared(p, 1); err == nil {
			t.Error("a page past the cap was granted")
		}
		return nil
	})
}
