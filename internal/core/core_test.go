package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cronus/internal/attest"
	"cronus/internal/core"
	"cronus/internal/enclave"
	"cronus/internal/gpu"
	"cronus/internal/mos"
	"cronus/internal/mos/driver"
	"cronus/internal/npu"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/srpc"
	"cronus/internal/wire"
)

func TestPlatformBootAndSessionPing(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "app-1")
		if err != nil {
			return err
		}
		out, err := s.Ping(p, []byte("hello enclave"))
		if err != nil {
			return err
		}
		if !bytes.Equal(out, []byte("hello enclave")) {
			t.Errorf("ping echoed %q", out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSessionRemoteAttestation(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "app-1")
		if err != nil {
			return err
		}
		g, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add")})
		if err != nil {
			return err
		}
		defer g.Close(p)
		// The client attests the whole closure: session enclave, CUDA
		// enclave, every mOS, and the frozen device tree (§IV-A).
		if err := s.Attest(p, 777); err != nil {
			t.Errorf("remote attestation failed: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpenCUDAComputeAndChunkedTransfers(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "app-1")
		if err != nil {
			return err
		}
		g, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add", "saxpy")})
		if err != nil {
			return err
		}
		defer g.Close(p)
		const n = 64 << 10 // 256 KiB buffers: forces chunking on a 64 KiB ring
		a, err := g.MemAlloc(p, n*4)
		if err != nil {
			return err
		}
		b, _ := g.MemAlloc(p, n*4)
		c, _ := g.MemAlloc(p, n*4)
		av := make([]float32, n)
		bv := make([]float32, n)
		for i := range av {
			av[i] = float32(i % 97)
			bv[i] = float32(i % 31)
		}
		if err := g.HtoD(p, a, gpu.Bytes(av)); err != nil {
			return err
		}
		if err := g.HtoD(p, b, gpu.Bytes(bv)); err != nil {
			return err
		}
		if err := g.Launch(p, "vec_add", gpu.Dim{n, 1, 1}, a, b, c); err != nil {
			return err
		}
		out, err := g.DtoH(p, c, n*4)
		if err != nil {
			return err
		}
		got := gpu.UnpackF32(out)
		for i := 0; i < n; i += 997 {
			if got[i] != av[i]+bv[i] {
				t.Errorf("c[%d] = %v, want %v", i, got[i], av[i]+bv[i])
				break
			}
		}
		return g.Sync(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpenNPURunsInstructionStream(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "app-1")
		if err != nil {
			return err
		}
		nconn, err := s.OpenNPU(p, core.NPUOptions{})
		if err != nil {
			return err
		}
		defer nconn.Close(p)
		// One GEMM block: load weights + input, multiply, store.
		w := make([]byte, npu.WgtBlockBytes)
		in := make([]byte, npu.InpBlockBytes)
		for i := range w {
			w[i] = byte(int8(i%5 - 2))
		}
		for i := range in {
			in[i] = byte(int8(i%3 - 1))
		}
		wAddr, err := nconn.MemAlloc(p, uint64(len(w)))
		if err != nil {
			return err
		}
		iAddr, _ := nconn.MemAlloc(p, uint64(len(in)))
		oAddr, _ := nconn.MemAlloc(p, npu.OutBlockBytes)
		if err := nconn.HtoD(p, wAddr, w); err != nil {
			return err
		}
		if err := nconn.HtoD(p, iAddr, in); err != nil {
			return err
		}
		err = nconn.Run(p, []npu.Insn{
			{Op: npu.OpLoad, Mem: npu.MemWgt, DRAMAddr: wAddr, Count: 1},
			{Op: npu.OpLoad, Mem: npu.MemInp, DRAMAddr: iAddr, Count: 1},
			{Op: npu.OpGemm, Count: 1, Reset: true},
			{Op: npu.OpCommit, Count: 1},
			{Op: npu.OpStore, Mem: npu.MemOut, DRAMAddr: oAddr, Count: 1},
			{Op: npu.OpFinish},
		})
		if err != nil {
			return err
		}
		out, err := nconn.DtoH(p, oAddr, npu.OutBlockBytes)
		if err != nil {
			return err
		}
		// Reference for lane 0.
		var ref int32
		for k := 0; k < npu.BlockIn; k++ {
			ref += int32(int8(w[k])) * int32(int8(in[k]))
		}
		if int8(out[0]) != int8(ref) {
			t.Errorf("NPU lane 0 = %d, want %d", int8(out[0]), ref)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGPUEnclavePlacementAcrossPartitions(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.GPUs = 2
	err := core.Run(cfg, func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "app-1")
		if err != nil {
			return err
		}
		g0, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add"), Partition: "gpu-part0", Name: "w0"})
		if err != nil {
			return err
		}
		g1, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add"), Partition: "gpu-part1", Name: "w1"})
		if err != nil {
			return err
		}
		if spm.PartitionID(g0.EID>>24) == spm.PartitionID(g1.EID>>24) {
			t.Error("pinned placements landed in the same partition")
		}
		g0.Close(p)
		g1.Close(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGPUPartitionCrashIsolatesOthers(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.GPUs = 2
	err := core.Run(cfg, func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "app-1")
		if err != nil {
			return err
		}
		g0, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add"), Partition: "gpu-part0", Name: "w0"})
		if err != nil {
			return err
		}
		g1, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add"), Partition: "gpu-part1", Name: "w1"})
		if err != nil {
			return err
		}
		pl.SPM.Fail(pl.GPUs[0].Part, spm.FailPanic)
		// g0's stream dies; g1 is completely unaffected (R3.1).
		if _, err := g0.MemAlloc(p, 64); err == nil {
			t.Error("stream to failed partition still works")
		}
		if _, err := g1.MemAlloc(p, 64); err != nil {
			t.Errorf("healthy partition disturbed: %v", err)
		}
		g1.Close(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpenCUDARequiresCubin(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "app-1")
		if err != nil {
			return err
		}
		_, err = s.OpenCUDA(p, core.CUDAOptions{})
		if err == nil || !strings.Contains(err.Error(), "cubin") {
			t.Errorf("err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// R3.2 at the full stack: tenant B cannot act on tenant A's enclaves — not
// by invoking its mECalls, not by connecting streams to it.
func TestCrossTenantIsolation(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		alice, err := pl.NewSession(p, "alice")
		if err != nil {
			return err
		}
		g, err := alice.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add"), Name: "alice-gpu"})
		if err != nil {
			return err
		}
		defer g.Close(p)
		// Mallory (another untrusted app) tries to call alice's CUDA
		// enclave with her own channel: no secret_dhke, no service.
		evil := attest.NewChannel([]byte("mallory guesses"), "owner->enclave")
		msg := mos.SealRequest(evil, new(wire.Encoder), driver.CallMemAlloc, driver.EncodeMemAlloc(64))
		if _, err := pl.D.InvokeSealed(p, g.EID, msg); err == nil {
			t.Error("cross-tenant mECall accepted")
		}
		// Mallory's session cannot hijack alice's eid for a stream: her
		// session has a different secret, so setup MACs fail.
		mallory, err := pl.NewSession(p, "mallory")
		if err != nil {
			return err
		}
		edl, _ := enclave.ParseEDL(driver.CUDAEDL())
		part, _ := pl.SPM.Partition(spm.PartitionID(g.EID >> 24))
		_, err = srpc.Connect(p, mallory.Owner(), g.EID, []byte("not the secret"), edl,
			srpc.Expected{EnclaveHash: attest.Measurement{}, MOSHash: part.MOSHash()}, pl.D, 0)
		if err == nil {
			t.Error("cross-tenant stream established")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Device OOM inside the callee surfaces as a clean synchronous error
// through the stream, and the stream survives.
func TestDeviceErrorsSurfaceThroughStream(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "oom")
		if err != nil {
			return err
		}
		g, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add")})
		if err != nil {
			return err
		}
		defer g.Close(p)
		_, err = g.MemAlloc(p, pl.GPUs[0].Dev.MemBytes()+1)
		var ce *mos.CallError
		if !errors.Is(err, gpu.ErrOutOfMemory) || !errors.As(err, &ce) || ce.Name != driver.CallMemAlloc {
			t.Errorf("OOM: err = %v, want the %s refusal carrying %v", err, driver.CallMemAlloc, gpu.ErrOutOfMemory)
		}
		// The stream is still healthy.
		if _, err := g.MemAlloc(p, 1024); err != nil {
			t.Errorf("stream broken after device error: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSealedRefusalIsTyped: a refusal that crosses the sealed channel keeps
// its type, as one across a ring does — an undeclared mECall is the admission
// check's mos.ErrUndeclaredCall and a device's out-of-memory its sentinel,
// each a mos.CallError naming the call.
func TestSealedRefusalIsTyped(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		dh, err := attest.NewDHKey([]byte("sealed-refusal"))
		if err != nil {
			return err
		}
		files := map[string][]byte{"cuda.edl": driver.CUDAEDL(), "app.cubin": gpu.BuildCubin("vec_add")}
		man := enclave.NewManifest("gpu", "cuda.edl", "app.cubin", files, enclave.Resources{Memory: "16M"})
		res, err := pl.D.CreateEnclave(p, "sealed", man, files, dh.Pub)
		if err != nil {
			return err
		}
		sec, err := dh.Shared(res.DHPub)
		if err != nil {
			return err
		}
		tx, rx := attest.NewChannel(sec, "owner->enclave"), attest.NewChannel(sec, "enclave->owner")
		for _, c := range []struct {
			name string
			args []byte
			want error
		}{
			{"cuWarpDrive", nil, mos.ErrUndeclaredCall},
			{driver.CallMemAlloc, driver.EncodeMemAlloc(pl.GPUs[0].Dev.MemBytes() + 1), gpu.ErrOutOfMemory},
		} {
			reply, err := pl.D.InvokeSealed(p, res.EID, mos.SealRequest(tx, new(wire.Encoder), c.name, c.args))
			if err != nil {
				return err
			}
			_, err = mos.OpenReply(rx, c.name, reply)
			var ce *mos.CallError
			if !errors.Is(err, c.want) || !errors.As(err, &ce) || ce.Name != c.name {
				t.Errorf("sealed %s: %v, want a mos.CallError naming it and carrying %v", c.name, err, c.want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNPUMemAllocSizeCannotWrap: an NPU mEnclave's allocation size comes off
// the wire, and one that would wrap the device's accounting past 2^64 is the
// device's out-of-memory refusal carried back as a mos.CallError, not a
// panic; the session's next call still works.
func TestNPUMemAllocSizeCannotWrap(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "wrap")
		if err != nil {
			return err
		}
		n, err := s.OpenNPU(p, core.NPUOptions{})
		if err != nil {
			return err
		}
		defer n.Close(p)
		if _, err := n.MemAlloc(p, 4096); err != nil {
			return err
		}
		_, err = n.MemAlloc(p, 1<<64-101)
		var ce *mos.CallError
		if !errors.As(err, &ce) || !errors.Is(err, npu.ErrOutOfMemory) {
			t.Errorf("MemAlloc(2^64-101): %v, want a CallError carrying %v", err, npu.ErrOutOfMemory)
		}
		addr, err := n.MemAlloc(p, 64)
		if err != nil {
			t.Errorf("the session's next call: %v", err)
		}
		return n.HtoD(p, addr, make([]byte, 64))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNPUWrappingAddressIsTyped: an NPU mEnclave's device addresses and
// block counts come off the wire. An HtoD, a DtoH and a vtaRun LOAD or STORE
// at 2^64-10, and a LOAD or STORE of 2^31 blocks, are the device's typed
// refusals carried back by their reply frames — a DtoH's as a mos.CallError,
// an asynchronous call's as the one the next Sync reports — not a panic that
// kills the executor, and the session's next MemAlloc, HtoD and DtoH still
// work.
func TestNPUWrappingAddressIsTyped(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "wrap")
		if err != nil {
			return err
		}
		n, err := s.OpenNPU(p, core.NPUOptions{})
		if err != nil {
			return err
		}
		defer n.Close(p)
		addr, err := n.MemAlloc(p, 4096)
		if err != nil {
			return err
		}
		const wrap = 1<<64 - 10
		refused := func(what string, err error, want error) {
			if !errors.Is(err, want) {
				t.Errorf("%s: %v, want the refusal carrying %v", what, err, want)
			}
		}
		run := func(in npu.Insn) error {
			if err := n.Run(p, []npu.Insn{in, {Op: npu.OpFinish}}); err != nil {
				return err
			}
			return n.Sync(p)
		}
		if err := n.HtoD(p, wrap, make([]byte, 100)); err != nil {
			refused("HtoD at 2^64-10", err, npu.ErrInvalidPointer)
		} else {
			refused("HtoD at 2^64-10, at the next Sync", n.Sync(p), npu.ErrInvalidPointer)
		}
		var ce *mos.CallError
		if _, err = n.DtoH(p, wrap, 100); !errors.As(err, &ce) {
			t.Errorf("DtoH at 2^64-10: %v, want a mos.CallError", err)
		}
		refused("DtoH at 2^64-10", err, npu.ErrInvalidPointer)
		refused("LOAD at 2^64-10", run(npu.Insn{Op: npu.OpLoad, Mem: npu.MemInp, DRAMAddr: wrap, Count: 1}), npu.ErrInvalidPointer)
		refused("STORE at 2^64-10", run(npu.Insn{Op: npu.OpStore, Mem: npu.MemOut, DRAMAddr: wrap, Count: 1}), npu.ErrInvalidPointer)
		refused("LOAD of 2^31 blocks", run(npu.Insn{Op: npu.OpLoad, Mem: npu.MemInp, DRAMAddr: addr, Count: 1 << 31}), npu.ErrScratchpadOverflow)
		refused("STORE of 2^31 blocks", run(npu.Insn{Op: npu.OpStore, Mem: npu.MemOut, DRAMAddr: addr, Count: 1 << 31}), npu.ErrScratchpadOverflow)
		next, err := n.MemAlloc(p, 64)
		if err != nil {
			return fmt.Errorf("the session's next MemAlloc: %w", err)
		}
		want := bytes.Repeat([]byte{7}, 64)
		if err := n.HtoD(p, next, want); err != nil {
			return err
		}
		got, err := n.DtoH(p, next, 64)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("the session's next HtoD and DtoH: %v, %x", err, got)
		}
		return n.Sync(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCUDAMemFreeReturnsMemory: cuMemFree through the stream gives the
// device memory back. It is asynchronous, so a second free of the pointer is
// the sticky error the next Sync reports — after which the stream still
// carries an HtoD and a DtoH.
func TestCUDAMemFreeReturnsMemory(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "free")
		if err != nil {
			return err
		}
		g, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add")})
		if err != nil {
			return err
		}
		defer g.Close(p)
		dev := pl.GPUs[0].Dev
		before := dev.MemUsed()
		ptr, err := g.MemAlloc(p, 4096)
		if err != nil {
			return err
		}
		if got := dev.MemUsed(); got != before+4096 {
			t.Errorf("device memory in use %d after a 4096-byte alloc, %d before", got, before)
		}
		if err := g.MemFree(p, ptr); err != nil {
			return err
		}
		if err := g.Sync(p); err != nil {
			return err
		}
		if got := dev.MemUsed(); got != before {
			t.Errorf("device memory in use %d after the free, %d before the alloc", got, before)
		}
		if err := g.MemFree(p, ptr); err != nil {
			return err
		}
		if err := g.Sync(p); !errors.Is(err, gpu.ErrInvalidPointer) {
			t.Errorf("Sync after a double free: %v, want the device's no-such-allocation error", err)
		}
		buf, err := g.MemAlloc(p, 16)
		if err != nil {
			return err
		}
		want := gpu.Bytes([]float32{1, 2, 3, 4})
		if err := g.HtoD(p, buf, want); err != nil {
			return err
		}
		got, err := g.DtoH(p, buf, len(want))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			t.Errorf("round trip after the double free read %v", gpu.UnpackF32(got))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The owner enclave dying mid-stream notifies the callee side cleanly: its
// executor exits via the trap instead of spinning (the mirror of the
// callee-failure case).
func TestOwnerEnclaveDeathStopsExecutor(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "dying-owner")
		if err != nil {
			return err
		}
		g, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add")})
		if err != nil {
			return err
		}
		if _, err := g.MemAlloc(p, 64); err != nil {
			return err
		}
		// The owner (session) enclave fails; its grants are revoked.
		s.Owner().Kill(p)
		// Give the executor time to trap and exit; if it kept spinning
		// the simulation would only end via core.Run's Stop — assert it
		// observed the revocation by checking the stream is dead from
		// the owner's (stale) side too.
		p.Sleep(sim.Millisecond)
		if _, err := g.MemAlloc(p, 64); err == nil {
			t.Error("stream usable after owner enclave death")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Two NPU mEnclaves in one partition: isolated memory, serialized pipeline,
// both make progress (intra-accelerator sharing on the NPU).
func TestTwoNPUEnclavesShareDevice(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "npu-tenants")
		if err != nil {
			return err
		}
		n1, err := s.OpenNPU(p, core.NPUOptions{Name: "npu-a"})
		if err != nil {
			return err
		}
		defer n1.Close(p)
		n2, err := s.OpenNPU(p, core.NPUOptions{Name: "npu-b"})
		if err != nil {
			return err
		}
		defer n2.Close(p)
		a1, err := n1.MemAlloc(p, 256)
		if err != nil {
			return err
		}
		a2, err := n2.MemAlloc(p, 256)
		if err != nil {
			return err
		}
		if err := n1.HtoD(p, a1, bytes.Repeat([]byte{1}, 256)); err != nil {
			return err
		}
		if err := n2.HtoD(p, a2, bytes.Repeat([]byte{2}, 256)); err != nil {
			return err
		}
		// Cross-enclave device pointers do not resolve.
		if _, err := n1.DtoH(p, a2, 16); err == nil {
			t.Error("NPU enclave read its sibling's device memory")
		}
		out1, err := n1.DtoH(p, a1, 16)
		if err != nil {
			return err
		}
		out2, err := n2.DtoH(p, a2, 16)
		if err != nil {
			return err
		}
		if out1[0] != 1 || out2[0] != 2 {
			t.Error("NPU tenants' data mixed")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
