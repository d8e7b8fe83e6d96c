package driver_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"cronus/internal/core"
	"cronus/internal/enclave"
	"cronus/internal/gpu"
	"cronus/internal/mos/driver"
	"cronus/internal/npu"
	"cronus/internal/sim"
	"cronus/internal/wire"
)

// cudaModel builds a CUDA model through the platform's GPU HAL.
func cudaModel(t *testing.T, pl *core.Platform, p *sim.Proc) *driver.CUDAModel {
	t.Helper()
	m, err := pl.GPUs[0].OS.HAL.NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	cm, ok := m.(*driver.CUDAModel)
	if !ok {
		t.Fatalf("model type %T", m)
	}
	if err := cm.Create(p, gpu.BuildCubin("vec_add")); err != nil {
		t.Fatal(err)
	}
	return cm
}

// call runs one mECall the way a transport does: the model appends its result
// to an encoder the caller owns.
func call(m enclave.Model, p *sim.Proc, name string, args []byte) ([]byte, error) {
	var res wire.Encoder
	err := m.Call(p, name, args, &res)
	return res.Bytes(), err
}

func TestCUDAModelArgValidation(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		m := cudaModel(t, pl, p)
		// Truncated arguments are rejected, not mis-decoded.
		if _, err := call(m, p, driver.CallMemAlloc, []byte{1, 2}); err == nil {
			t.Error("truncated MemAlloc args accepted")
		}
		if _, err := call(m, p, driver.CallHtoD, []byte{0}); err == nil {
			t.Error("truncated HtoD args accepted")
		}
		if _, err := call(m, p, driver.CallLaunch, []byte{9}); err == nil {
			t.Error("truncated Launch args accepted")
		}
		// Unknown mECall name.
		if _, err := call(m, p, "cuWarpDrive", nil); err == nil || !strings.Contains(err.Error(), "unknown CUDA mECall") {
			t.Errorf("err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCUDAModelLifecycle(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		m := cudaModel(t, pl, p)
		res, err := call(m, p, driver.CallMemAlloc, driver.EncodeMemAlloc(64))
		if err != nil {
			return err
		}
		ptr, err := driver.DecodePtr(res)
		if err != nil {
			return err
		}
		if _, err := call(m, p, driver.CallHtoD, driver.EncodeHtoD(ptr, make([]byte, 64))); err != nil {
			return err
		}
		if _, err := call(m, p, driver.CallMemFree, driver.EncodeMemFree(ptr)); err != nil {
			return err
		}
		// Freed pointer: the device rejects the access.
		if _, err := call(m, p, driver.CallHtoD, driver.EncodeHtoD(ptr, make([]byte, 4))); err == nil {
			t.Error("use-after-free accepted")
		}
		m.Destroy(p)
		if _, err := call(m, p, driver.CallMemAlloc, driver.EncodeMemAlloc(4)); err == nil {
			t.Error("destroyed model still callable")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCUDAModelRejectsBadCubin(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		m, err := pl.GPUs[0].OS.HAL.NewModel(p)
		if err != nil {
			return err
		}
		if err := m.Create(p, []byte("MZ...PE windows binary")); err == nil {
			t.Error("garbage image loaded as cubin")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNPUModelInsnCodec(t *testing.T) {
	insns := []npu.Insn{
		{Op: npu.OpLoad, Mem: npu.MemWgt, DRAMAddr: 0x1234, SRAMIdx: 7, Count: 3},
		{Op: npu.OpGemm, InpIdx: 1, WgtIdx: 2, AccIdx: 3, InpStride: 1, WgtStride: 2, AccStride: 0, Count: 9, Reset: true},
		{Op: npu.OpAlu, Alu: npu.AluShr, DstIdx: 4, UseImm: true, Imm: -2, Count: 5},
		{Op: npu.OpFinish},
	}
	enc := driver.EncodeInsns(insns)
	got, err := driver.DecodeInsns(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(insns) {
		t.Fatalf("decoded %d insns", len(got))
	}
	for i := range insns {
		if got[i] != insns[i] {
			t.Fatalf("insn %d mismatch: %+v vs %+v", i, got[i], insns[i])
		}
	}
	if _, err := driver.DecodeInsns([]byte("ELF")); err == nil {
		t.Fatal("garbage decoded as VTA program")
	}
}

func TestNPUModelValidatesProgramImage(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		m, err := pl.NPUs[0].OS.HAL.NewModel(p)
		if err != nil {
			return err
		}
		if err := m.Create(p, []byte("not a vta program")); err == nil {
			t.Error("bad NPU image accepted")
		}
		// Valid image and nil image both load.
		m2, _ := pl.NPUs[0].OS.HAL.NewModel(p)
		if err := m2.Create(p, driver.EncodeInsns([]npu.Insn{{Op: npu.OpFinish}})); err != nil {
			t.Errorf("valid program rejected: %v", err)
		}
		m3, _ := pl.NPUs[0].OS.HAL.NewModel(p)
		if err := m3.Create(p, nil); err != nil {
			t.Errorf("nil image rejected: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNPUModelRunAndSync(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		m, err := pl.NPUs[0].OS.HAL.NewModel(p)
		if err != nil {
			return err
		}
		if err := m.Create(p, nil); err != nil {
			return err
		}
		res, err := call(m, p, driver.CallVTAMemAlloc, driver.EncodeMemAlloc(256))
		if err != nil {
			return err
		}
		addr, _ := driver.DecodePtr(res)
		if _, err := call(m, p, driver.CallVTAHtoD, driver.EncodeHtoD(addr, make([]byte, 256))); err != nil {
			return err
		}
		prog := driver.EncodeInsns([]npu.Insn{
			{Op: npu.OpLoad, Mem: npu.MemInp, DRAMAddr: addr, Count: 4},
			{Op: npu.OpFinish},
		})
		if _, err := call(m, p, driver.CallVTARun, prog); err != nil {
			return err
		}
		if _, err := call(m, p, driver.CallVTASync, nil); err != nil {
			return err
		}
		out, err := call(m, p, driver.CallVTADtoH, driver.EncodeDtoH(addr, 16))
		if err != nil {
			return err
		}
		blob, err := driver.DecodeBlob(out)
		if err != nil || len(blob) != 16 {
			t.Errorf("DtoH blob %d bytes, err=%v", len(blob), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDriverEncodersDecoders(t *testing.T) {
	// EncodeLaunch round-trips through a wire decoder the way the model
	// parses it.
	args := driver.EncodeLaunch(new(wire.Encoder), "matmul", gpu.Dim{4, 5, 6}, 10, 20)
	d := wire.NewDecoder(args)
	if d.Str() != "matmul" {
		t.Fatal("kernel name mangled")
	}
	if d.U32() != 4 || d.U32() != 5 || d.U32() != 6 {
		t.Fatal("grid mangled")
	}
	if d.U32() != 2 || d.U64() != 10 || d.U64() != 20 {
		t.Fatal("args mangled")
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

// allocBytes is the heap allocation, in bytes, of one call of f: the least
// per-call average over five batches, since the counter is the process's and
// whatever else allocates while a batch runs can only add to it.
func allocBytes(f func()) uint64 {
	const batches, runs = 5, 50
	least := ^uint64(0)
	for b := 0; b < batches; b++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return least
}

// hostileCount is a count word no payload of a few dozen bytes can back.
const hostileCount = 0xFFFFFFFF

// TestDecodeInsnsHostileCount: a program image whose instruction count is
// 0xFFFFFFFF but which carries one instruction's worth of bytes is a typed
// truncation, and decoding it allocates in proportion to the payload — not
// the ~300 GB the count word asks for.
func TestDecodeInsnsHostileCount(t *testing.T) {
	payload := wire.NewEncoder().Str("VTAPROG v1").U32(hostileCount).Bytes()
	payload = append(payload, make([]byte, 72)...)
	var err error
	per := allocBytes(func() { _, err = driver.DecodeInsns(payload) })
	if !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("DecodeInsns error = %v, want one wrapping wire.ErrTruncated", err)
	}
	if limit := uint64(8 * len(payload)); per > limit {
		t.Errorf("DecodeInsns allocated %d B for a %d B payload, want <= %d", per, len(payload), limit)
	}
}

// TestCUDALaunchHostileArgCount: a cuLaunchKernel whose argument count is
// 0xFFFFFFFF but which carries one argument is a typed truncation returned
// before any launch, and the call allocates in proportion to the payload —
// no more than the same launch with count 2, which its one argument falls
// short of just as surely, plus the 8 bytes a payload byte may cost — not the
// 32 GiB the count word asks for. Measured against that twin, the bound holds
// whatever the build adds to both (the race detector's instrumentation is
// ~40% of a call).
func TestCUDALaunchHostileArgCount(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		m := cudaModel(t, pl, p)
		launch := func(count uint32) []byte {
			return wire.NewEncoder().Str("vec_add").U32(1).U32(1).U32(1).U32(count).U64(0).Bytes()
		}
		short, payload := launch(2), launch(hostileCount)
		var err error
		base := allocBytes(func() { _, err = call(m, p, driver.CallLaunch, short) })
		if !errors.Is(err, wire.ErrTruncated) {
			t.Fatalf("Launch with count 2 error = %v, want one wrapping wire.ErrTruncated", err)
		}
		per := allocBytes(func() { _, err = call(m, p, driver.CallLaunch, payload) })
		if !errors.Is(err, wire.ErrTruncated) {
			t.Fatalf("Launch error = %v, want one wrapping wire.ErrTruncated", err)
		}
		t.Logf("count 2: %d B a call, count %#x: %d B", base, uint32(hostileCount), per)
		if limit := base + uint64(8*len(payload)); per > limit {
			t.Errorf("Launch allocated %d B for a %d B payload, want <= %d (count 2: %d B)", per, len(payload), limit, base)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeInsns feeds attacker-chosen bytes to the NPU program decoder (the
// vtaRun payload and the NPU enclave image). It must never panic; a failure
// is a bad magic or a typed truncation; a decoded program fits in the bytes
// it came from and survives an encode/decode round trip unchanged.
func FuzzDecodeInsns(f *testing.F) {
	f.Add(driver.EncodeInsns([]npu.Insn{
		{Op: npu.OpLoad, Mem: npu.MemWgt, DRAMAddr: 0x1234, SRAMIdx: 7, Count: 3},
		{Op: npu.OpGemm, InpIdx: 1, WgtIdx: 2, AccIdx: 3, InpStride: 1, WgtStride: 2, Count: 9, Reset: true},
		{Op: npu.OpAlu, Alu: npu.AluShr, DstIdx: 4, UseImm: true, Imm: -2, Count: 5},
		{Op: npu.OpFinish},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		insns, err := driver.DecodeInsns(data)
		if err != nil {
			if insns != nil {
				t.Fatalf("error %v with %d instructions", err, len(insns))
			}
			if !errors.Is(err, wire.ErrTruncated) && !strings.Contains(err.Error(), "not a VTA program") {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		enc := driver.EncodeInsns(insns)
		if len(enc) > len(data) {
			t.Fatalf("%d instructions re-encode to %d bytes, decoded from %d", len(insns), len(enc), len(data))
		}
		again, err := driver.DecodeInsns(enc)
		if err != nil || len(again) != len(insns) {
			t.Fatalf("round trip: %d instructions, err %v; want %d", len(again), err, len(insns))
		}
		for i := range insns {
			if again[i] != insns[i] {
				t.Fatalf("round trip: insn %d %+v, want %+v", i, again[i], insns[i])
			}
		}
	})
}
