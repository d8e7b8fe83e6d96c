package driver_test

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cronus/internal/core"
	"cronus/internal/enclave"
	"cronus/internal/gpu"
	"cronus/internal/mos/driver"
	"cronus/internal/npu"
	"cronus/internal/sim"
	"cronus/internal/wire"
	"cronus/internal/workload/vtabench"
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
	err := m.Call(p, name, args, &res, nil)
	return res.Bytes(), err
}

// TestEDLTextIsBuildEDLs holds the constant EDL texts to what
// enclave.BuildEDL writes for the same tables: an mEnclave's measurement
// covers these bytes, so a spelling drift would move every enclave hash.
func TestEDLTextIsBuildEDLs(t *testing.T) {
	cuda := enclave.BuildEDL(
		enclave.MECallSpec{Name: driver.CallMemAlloc, Async: false},
		enclave.MECallSpec{Name: driver.CallMemFree, Async: true},
		enclave.MECallSpec{Name: driver.CallHtoD, Async: true},
		enclave.MECallSpec{Name: driver.CallDtoH, Async: false},
		enclave.MECallSpec{Name: driver.CallLaunch, Async: true},
		enclave.MECallSpec{Name: driver.CallSync, Async: false},
	)
	npuText := enclave.BuildEDL(
		enclave.MECallSpec{Name: driver.CallVTAMemAlloc, Async: false},
		enclave.MECallSpec{Name: driver.CallVTAHtoD, Async: true},
		enclave.MECallSpec{Name: driver.CallVTADtoH, Async: false},
		enclave.MECallSpec{Name: driver.CallVTARun, Async: true},
		enclave.MECallSpec{Name: driver.CallVTASync, Async: false},
	)
	if got := driver.CUDAEDL(); !bytes.Equal(got, cuda) {
		t.Errorf("CUDAEDL = %q, BuildEDL writes %q", got, cuda)
	}
	if got := driver.NPUEDL(); !bytes.Equal(got, npuText) {
		t.Errorf("NPUEDL = %q, BuildEDL writes %q", got, npuText)
	}
	// Each call hands out its own bytes.
	a := driver.CUDAEDL()
	a[0] ^= 0xff
	if !bytes.Equal(driver.CUDAEDL(), cuda) {
		t.Error("CUDAEDL returned shared storage")
	}
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
	enc := driver.EncodeInsns(wire.NewEncoder(), insns)
	got, err := driver.DecodeInsns(nil, enc)
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
	if _, err := driver.DecodeInsns(nil, []byte("ELF")); err == nil {
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
		if err := m2.Create(p, driver.EncodeInsns(wire.NewEncoder(), []npu.Insn{{Op: npu.OpFinish}})); err != nil {
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
		prog := driver.EncodeInsns(wire.NewEncoder(), []npu.Insn{
			{Op: npu.OpLoad, Mem: npu.MemInp, DRAMAddr: addr, Count: 4},
			{Op: npu.OpFinish},
		})
		if _, err := call(m, p, driver.CallVTARun, prog); err != nil {
			return err
		}
		if _, err := call(m, p, driver.CallVTASync, nil); err != nil {
			return err
		}
		out, err := call(m, p, driver.CallVTADtoH, dtoh(addr, 16))
		if err != nil {
			return err
		}
		blob, err := blobOf(out)
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
	if string(d.StrRef()) != "matmul" {
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
	per := allocBytes(func() { _, err = driver.DecodeInsns(nil, payload) })
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
	f.Add(driver.EncodeInsns(wire.NewEncoder(), []npu.Insn{
		{Op: npu.OpLoad, Mem: npu.MemWgt, DRAMAddr: 0x1234, SRAMIdx: 7, Count: 3},
		{Op: npu.OpGemm, InpIdx: 1, WgtIdx: 2, AccIdx: 3, InpStride: 1, WgtStride: 2, Count: 9, Reset: true},
		{Op: npu.OpAlu, Alu: npu.AluShr, DstIdx: 4, UseImm: true, Imm: -2, Count: 5},
		{Op: npu.OpFinish},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		insns, err := driver.DecodeInsns(nil, data)
		if err != nil {
			if insns != nil {
				t.Fatalf("error %v with %d instructions", err, len(insns))
			}
			if !errors.Is(err, wire.ErrTruncated) && !strings.Contains(err.Error(), "not a VTA program") {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		enc := driver.EncodeInsns(wire.NewEncoder(), insns)
		if len(enc) > len(data) {
			t.Fatalf("%d instructions re-encode to %d bytes, decoded from %d", len(insns), len(enc), len(data))
		}
		again, err := driver.DecodeInsns(nil, enc)
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

// fuzzRunBudget bounds the cycles of a stream FuzzNPUInsns runs: a GEMM of
// 2^32 iterations on one block in range is a valid stream, just hours of
// host time, and the fuzz leg is after refusals, not length.
const fuzzRunBudget = 1 << 18

// fuzzContext makes the FuzzNPUInsns context on p's kernel and allocates it
// 64 KiB of DRAM, whose address it returns: a fresh context's first
// allocation, the same on every run, so a seed can name it.
func fuzzContext(p *sim.Proc) (*npu.Context, uint64, error) {
	cfg := npu.DefaultConfig("npu-fuzz")
	cfg.MemBytes = 1 << 20
	c := npu.New(p.Kernel(), sim.DefaultCosts(), cfg).CreateContext()
	addr, err := c.MemAlloc(64 << 10)
	return c, addr, err
}

// FuzzNPUInsns feeds attacker-chosen bytes through the vtaRun path an NPU
// mEnclave takes — DecodeInsns, then Run on a fresh context with DRAM — and
// requires every stream that decodes to end in success or in an error that
// wraps one of the npu package's sentinels: never a panic, never an untyped
// refusal. The seeds are a vta-bench GEMM over the context's DRAM and the
// hostile instructions of npu.TestHostileInsnsAreTyped, the GEMM whose
// accumulator stride wraps uint32 back into range among them.
func FuzzNPUInsns(f *testing.F) {
	var dram uint64
	if err := sim.Run(func(p *sim.Proc) (err error) {
		_, dram, err = fuzzContext(p)
		return err
	}); err != nil {
		f.Fatal(err)
	}
	seeds := [][]npu.Insn{
		vtabench.MatmulProgram(dram, dram+16<<10, dram+32<<10, 2, 32, 32),
		{{Op: npu.OpGemm, AccIdx: 5, AccStride: 1<<32 - 4, Count: 2}, {Op: npu.OpFinish}},
		{{Op: npu.OpAlu, Alu: npu.AluMax, SrcIdx: npu.AccBufBlocks - 1, Count: 2}},
		{{Op: npu.OpCommit, SrcIdx: 1<<32 - 1, Count: 1}},
		{{Op: npu.OpLoad, Mem: npu.MemWgt, DRAMAddr: dram, SRAMIdx: 1, Count: 1<<32 - 1}},
		{{Op: npu.OpStore, Mem: npu.MemOut, DRAMAddr: 1<<64 - 10, Count: 1}},
		{{Op: npu.OpLoad, Mem: npu.MemOut, DRAMAddr: dram, Count: 1}, {Op: 99}},
	}
	for _, insns := range seeds {
		f.Add(driver.EncodeInsns(wire.NewEncoder(), insns))
	}
	sentinels := []error{npu.ErrScratchpadOverflow, npu.ErrInvalidInsn, npu.ErrInvalidPointer, npu.ErrStaleContext, npu.ErrOutOfMemory}
	f.Fuzz(func(t *testing.T, data []byte) {
		insns, err := driver.DecodeInsns(nil, data)
		if err != nil || npu.CycleCount(insns) > fuzzRunBudget {
			return // FuzzDecodeInsns holds the decoder's refusals
		}
		var runErr error
		if err := sim.Run(func(p *sim.Proc) error {
			c, _, err := fuzzContext(p)
			if err == nil {
				runErr = c.Run(p, insns)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if runErr != nil && !slices.ContainsFunc(sentinels, func(s error) bool { return errors.Is(runErr, s) }) {
			t.Fatalf("untyped refusal of a %d-instruction stream: %v", len(insns), runErr)
		}
	})
}

// TestEncodeInsnsAllocatesOnce: EncodeInsns sizes its encoder once, for the
// header and every instruction, so a stream is one allocation of exactly its
// length, and it decodes to the instructions encoded.
func TestEncodeInsnsAllocatesOnce(t *testing.T) {
	insns := make([]npu.Insn, 100)
	for i := range insns {
		insns[i] = npu.Insn{Op: npu.OpGemm, DRAMAddr: uint64(i) << 33, Count: uint32(i), Reset: i%2 == 0, UseImm: i%3 == 0, Imm: -int32(i)}
	}
	var out []byte
	if n := testing.AllocsPerRun(20, func() { out = driver.EncodeInsns(wire.NewEncoder(), insns) }); n != 1 {
		t.Errorf("EncodeInsns made %v allocations, want 1", n)
	}
	if len(out) != cap(out) {
		t.Errorf("a %d-byte stream in a buffer of %d", len(out), cap(out))
	}
	back, err := driver.DecodeInsns(nil, out)
	if err != nil || len(back) != len(insns) {
		t.Fatalf("decoded %d instructions: %v", len(back), err)
	}
	for i := range insns {
		if back[i] != insns[i] {
			t.Fatalf("instruction %d: decoded %+v, encoded %+v", i, back[i], insns[i])
		}
	}
}

// dtoh is cuMemcpyDtoH's arguments as a slice.
func dtoh(src, n uint64) []byte {
	head := driver.DtoHHead(src, n)
	return head[:]
}

// blobOf reads a data reply's bytes (cuMemcpyDtoH).
func blobOf(res []byte) ([]byte, error) {
	d := wire.NewDecoder(res)
	b := d.BlobRef()
	return b, d.Err()
}
