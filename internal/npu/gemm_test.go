package npu

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cronus/internal/sim"
)

// mapGemm is gemm as it shipped before the bitset and the array views, kept
// as the reference (the scratchpads it read were []int8 then, so its lanes
// are converted here): a map per instruction records which accumulator
// blocks Reset has zeroed, and every int8 product is indexed through a slice.
func (c *Context) mapGemm(in *Insn) error {
	resetSeen := make(map[uint32]bool)
	for i := uint32(0); i < in.Count; i++ {
		ai := in.AccIdx + i*in.AccStride
		wi := in.WgtIdx + i*in.WgtStride
		ii := in.InpIdx + i*in.InpStride
		if ai >= AccBufBlocks || wi >= WgtBufBlocks || ii >= InpBufBlocks {
			return fmt.Errorf("gemm blocks acc=%d wgt=%d inp=%d: %w", ai, wi, ii, ErrScratchpadOverflow)
		}
		acc := c.dev.acc[ai*BlockOut : (ai+1)*BlockOut]
		if in.Reset && !resetSeen[ai] {
			for o := range acc {
				acc[o] = 0
			}
			resetSeen[ai] = true
		}
		wgt := c.dev.wgt[wi*WgtBlockBytes : (wi+1)*WgtBlockBytes]
		inp := c.dev.inp[ii*InpBlockBytes : (ii+1)*InpBlockBytes]
		for o := 0; o < BlockOut; o++ {
			var s int32
			for k := 0; k < BlockIn; k++ {
				s += int32(int8(wgt[o*BlockIn+k])) * int32(int8(inp[k]))
			}
			acc[o] += s
		}
	}
	return nil
}

// randomGemm draws one GEMM instruction: strides 0 (every iteration on one
// accumulator block, as tvm's tiles are), 1 or larger, and now and then an
// index that leaves its scratchpad at some iteration i > 0.
func randomGemm(rng *rand.Rand) Insn {
	stride := func() uint32 { return []uint32{0, 1, 1, 2, 3, 17}[rng.Intn(6)] }
	in := Insn{
		Op:        OpGemm,
		Count:     uint32(rng.Intn(48)),
		AccIdx:    uint32(rng.Intn(AccBufBlocks)),
		WgtIdx:    uint32(rng.Intn(WgtBufBlocks)),
		InpIdx:    uint32(rng.Intn(InpBufBlocks)),
		AccStride: stride(),
		WgtStride: stride(),
		InpStride: stride(),
		Reset:     rng.Intn(3) > 0,
	}
	if rng.Intn(4) == 0 {
		// Walk off the end of one scratchpad a few blocks in.
		in.Count = 8 + uint32(rng.Intn(8))
		switch rng.Intn(3) {
		case 0:
			in.AccIdx, in.AccStride = AccBufBlocks-3, 1
		case 1:
			in.WgtIdx, in.WgtStride = WgtBufBlocks-2, 1
		case 2:
			in.InpIdx, in.InpStride = InpBufBlocks-5, 2
		}
	}
	return in
}

// TestGemmMatchesMapReference runs random instruction streams through gemm
// and through mapGemm on two devices whose scratchpads start identical —
// random int8 weights and inputs, accumulators anywhere in int32 so the sums
// wrap — and requires the same accumulator bits, the same cycles and the same
// error after every instruction: an index out of range at i > 0 leaves the
// blocks before it exactly as the reference leaves them.
func TestGemmMatchesMapReference(t *testing.T) {
	k := sim.NewKernel()
	got, want := testNPU(k), testNPU(k)
	gc, wc := got.CreateContext(), want.CreateContext()
	got.takeScratchpads(gc)
	want.takeScratchpads(wc)
	rng := rand.New(rand.NewSource(25))
	for i := range got.wgt {
		got.wgt[i] = byte(rng.Intn(256))
	}
	for i := range got.inp {
		got.inp[i] = byte(rng.Intn(256))
	}
	for i := range got.acc {
		got.acc[i] = int32(rng.Uint32())
	}
	copy(want.wgt, got.wgt)
	copy(want.inp, got.inp)
	copy(want.acc, got.acc)
	faults := 0
	for n := 0; n < 400; n++ {
		in := randomGemm(rng)
		gErr, wErr := gc.gemm(&in), wc.mapGemm(&in)
		if fmt.Sprint(gErr) != fmt.Sprint(wErr) {
			t.Fatalf("insn %d %+v: %v, reference %v", n, in, gErr, wErr)
		}
		if wErr != nil {
			faults++
		}
		if !slices.Equal(got.acc, want.acc) {
			for b := range got.acc {
				if got.acc[b] != want.acc[b] {
					t.Fatalf("insn %d %+v: acc[%d] = %d, reference %d", n, in, b, got.acc[b], want.acc[b])
				}
			}
		}
	}
	if faults == 0 {
		t.Fatal("no stream faulted: the out-of-range path went untested")
	}
	t.Logf("400 instructions, %d of them faulting part way", faults)
}

// gemmStream is a tvm-shaped tile — one input row of 8 blocks against 4
// output blocks, ReLU, commit, store — repeated over 4 rows.
func gemmStream(in, wgt, out uint64) []Insn {
	const kb, cnt = 8, 4
	insns := []Insn{{Op: OpLoad, Mem: MemWgt, DRAMAddr: wgt, Count: kb * cnt}}
	for r := 0; r < 4; r++ {
		insns = append(insns, Insn{Op: OpLoad, Mem: MemInp, DRAMAddr: in + uint64(r*kb*BlockIn), Count: kb})
		for j := 0; j < cnt; j++ {
			insns = append(insns, Insn{Op: OpGemm, InpStride: 1, WgtIdx: uint32(j * kb), WgtStride: 1, AccIdx: uint32(j), Count: kb, Reset: true})
		}
		insns = append(insns,
			Insn{Op: OpAlu, Alu: AluMax, UseImm: true, Count: cnt},
			Insn{Op: OpCommit, Count: cnt},
			Insn{Op: OpStore, Mem: MemOut, DRAMAddr: out + uint64(r*cnt*BlockOut), Count: cnt},
		)
	}
	return append(insns, Insn{Op: OpFinish})
}

// TestRunAllocatesNothing: a warm Run over GEMM, ALU, commit and DMA
// instructions allocates nothing — no per-instruction map, no error value.
func TestRunAllocatesNothing(t *testing.T) {
	inSim(t, func(k *sim.Kernel, p *sim.Proc) {
		ctx := testNPU(k).CreateContext()
		in, _ := ctx.MemAlloc(4 * 8 * InpBlockBytes)
		wgt, _ := ctx.MemAlloc(32 * WgtBlockBytes)
		out, _ := ctx.MemAlloc(4 * 4 * OutBlockBytes)
		insns := gemmStream(in, wgt, out)
		var fail error
		run := func() {
			if err := ctx.Run(p, insns); err != nil {
				fail = err
			}
		}
		run()
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 || fail != nil {
			t.Errorf("Run: %.1f allocations per stream (err %v), want 0", allocs, fail)
		}
	})
}

// BenchmarkNPUGemm is one GEMM instruction as tvm emits them: 64 blocks of
// 16×16 int8 MACs into one accumulator block, with Reset.
func BenchmarkNPUGemm(b *testing.B) {
	d := testNPU(sim.NewKernel())
	ctx := d.CreateContext()
	d.takeScratchpads(ctx)
	rng := rand.New(rand.NewSource(1))
	for i := range d.wgt {
		d.wgt[i] = byte(int8(rng.Intn(7) - 3))
	}
	for i := range d.inp {
		d.inp[i] = byte(rng.Intn(256))
	}
	in := Insn{Op: OpGemm, InpStride: 1, WgtStride: 1, Count: 64, Reset: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ctx.gemm(&in); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in.Count), "ns/block")
}
