package core_test

import (
	"bytes"
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
		if _, err := g.MemAlloc(p, pl.GPUs[0].Dev.MemBytes()+1); err == nil || !strings.Contains(err.Error(), "out of device memory") {
			t.Errorf("OOM: err = %v", err)
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
		if err := g.Sync(p); err == nil || !strings.Contains(err.Error(), "no such allocation") {
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
