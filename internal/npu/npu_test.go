package npu

import (
	"errors"
	"testing"
	"testing/quick"

	"cronus/internal/attest"
	"cronus/internal/sim"
)

func testNPU(k *sim.Kernel) *Device {
	cfg := DefaultConfig("npu0")
	cfg.MemBytes = 16 << 20
	return New(k, sim.DefaultCosts(), cfg)
}

func inSim(t *testing.T, body func(k *sim.Kernel, p *sim.Proc)) {
	t.Helper()
	k := sim.NewKernel()
	k.Spawn("test", func(p *sim.Proc) { body(k, p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// buildMatmul emits the instruction stream for C[M×N] = A[M×K] × Bᵀ, with B
// supplied as weight blocks W[nb][kb] (each 16×16, o-major), A and C int8
// row-major in device DRAM. N and K must be multiples of 16.
func buildMatmul(aAddr, wAddr, cAddr uint64, m, n, kk int) []Insn {
	nb := n / BlockOut
	kb := kk / BlockIn
	var insns []Insn
	// Load all weight blocks once.
	insns = append(insns, Insn{Op: OpLoad, Mem: MemWgt, DRAMAddr: wAddr, SRAMIdx: 0, Count: uint32(nb * kb)})
	for row := 0; row < m; row++ {
		insns = append(insns, Insn{
			Op: OpLoad, Mem: MemInp,
			DRAMAddr: aAddr + uint64(row*kk),
			SRAMIdx:  0, Count: uint32(kb),
		})
		for j := 0; j < nb; j++ {
			insns = append(insns, Insn{
				Op:     OpGemm,
				InpIdx: 0, InpStride: 1,
				WgtIdx: uint32(j * kb), WgtStride: 1,
				AccIdx: uint32(j), AccStride: 0,
				Count: uint32(kb),
				Reset: true,
			})
		}
		insns = append(insns, Insn{Op: OpCommit, SrcIdx: 0, DstIdx: 0, Count: uint32(nb)})
		insns = append(insns, Insn{
			Op: OpStore, Mem: MemOut,
			DRAMAddr: cAddr + uint64(row*n),
			SRAMIdx:  0, Count: uint32(nb),
		})
	}
	insns = append(insns, Insn{Op: OpFinish})
	return insns
}

// packWeights lays out B[K×N] int8 as weight blocks W[nb][kb][o][k] where
// W[nb][kb][o][k] = B[kb*16+k][nb*16+o].
func packWeights(b []int8, kk, n int) []byte {
	nb := n / BlockOut
	kb := kk / BlockIn
	out := make([]byte, nb*kb*WgtBlockBytes)
	idx := 0
	for j := 0; j < nb; j++ {
		for t := 0; t < kb; t++ {
			for o := 0; o < BlockOut; o++ {
				for k := 0; k < BlockIn; k++ {
					out[idx] = byte(b[(t*BlockIn+k)*n+j*BlockOut+o])
					idx++
				}
			}
		}
	}
	return out
}

func sat8(v int32) int8 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	return int8(v)
}

func TestTiledMatmulMatchesReference(t *testing.T) {
	inSim(t, func(k *sim.Kernel, p *sim.Proc) {
		d := testNPU(k)
		ctx := d.CreateContext()
		const M, N, K = 4, 32, 48
		a := make([]int8, M*K)
		b := make([]int8, K*N)
		for i := range a {
			a[i] = int8(i%7 - 3)
		}
		for i := range b {
			b[i] = int8(i%5 - 2)
		}
		aAddr, _ := ctx.MemAlloc(uint64(len(a)))
		wBytes := packWeights(b, K, N)
		wAddr, _ := ctx.MemAlloc(uint64(len(wBytes)))
		cAddr, _ := ctx.MemAlloc(uint64(M * N))
		ab := make([]byte, len(a))
		for i, v := range a {
			ab[i] = byte(v)
		}
		ctx.HtoD(p, aAddr, ab)
		ctx.HtoD(p, wAddr, wBytes)
		if err := ctx.Run(p, buildMatmul(aAddr, wAddr, cAddr, M, N, K)); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, M*N)
		ctx.DtoH(p, got, cAddr)
		for i := 0; i < M; i++ {
			for j := 0; j < N; j++ {
				var ref int32
				for kk := 0; kk < K; kk++ {
					ref += int32(a[i*K+kk]) * int32(b[kk*N+j])
				}
				if int8(got[i*N+j]) != sat8(ref) {
					t.Errorf("C[%d,%d] = %d, want %d", i, j, int8(got[i*N+j]), sat8(ref))
					return
				}
			}
		}
	})
}

func TestRunChargesCycleTime(t *testing.T) {
	inSim(t, func(k *sim.Kernel, p *sim.Proc) {
		d := testNPU(k)
		ctx := d.CreateContext()
		addr, _ := ctx.MemAlloc(uint64(4 * InpBlockBytes))
		insns := []Insn{
			{Op: OpLoad, Mem: MemInp, DRAMAddr: addr, Count: 4},
			{Op: OpGemm, Count: 10, Reset: true},
			{Op: OpFinish},
		}
		start := p.Now()
		if err := ctx.Run(p, insns); err != nil {
			t.Error(err)
			return
		}
		elapsed := sim.Duration(p.Now() - start)
		want := sim.Duration(float64(CycleCount(insns)) / d.costs.NPUCyclePerNs)
		if elapsed != want {
			t.Errorf("elapsed %v, want %v", elapsed, want)
		}
		if elapsed <= 0 {
			t.Error("no virtual time charged")
		}
	})
}

func TestPipelineSerializesStreams(t *testing.T) {
	k := sim.NewKernel()
	d := testNPU(k)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		k.Spawn("tenant", func(p *sim.Proc) {
			ctx := d.CreateContext()
			ctx.Run(p, []Insn{{Op: OpGemm, Count: 1000, Reset: true}, {Op: OpFinish}})
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ends) != 2 || ends[0] == ends[1] {
		t.Fatalf("streams did not serialize: ends=%v", ends)
	}
	if float64(ends[1]) < 1.9*float64(ends[0]) {
		t.Fatalf("second stream should take ~2x: %v", ends)
	}
}

func TestAluOps(t *testing.T) {
	inSim(t, func(k *sim.Kernel, p *sim.Proc) {
		d := testNPU(k)
		ctx := d.CreateContext()
		// Seed acc[0] via a GEMM with identity-ish data: simpler to poke
		// directly through LOAD of MemAcc.
		accBytes := make([]byte, AccBlockBytes)
		for o := 0; o < BlockOut; o++ {
			v := int32(o - 8)
			accBytes[o*4] = byte(v)
			accBytes[o*4+1] = byte(v >> 8)
			accBytes[o*4+2] = byte(v >> 16)
			accBytes[o*4+3] = byte(v >> 24)
		}
		addr, _ := ctx.MemAlloc(uint64(len(accBytes)))
		ctx.HtoD(p, addr, accBytes)
		insns := []Insn{
			{Op: OpLoad, Mem: MemAcc, DRAMAddr: addr, SRAMIdx: 0, Count: 1},
			{Op: OpAlu, Alu: AluMax, DstIdx: 0, UseImm: true, Imm: 0}, // ReLU
			{Op: OpAlu, Alu: AluAdd, DstIdx: 0, UseImm: true, Imm: 100},
			{Op: OpAlu, Alu: AluShr, DstIdx: 0, UseImm: true, Imm: 1},
			{Op: OpCommit, SrcIdx: 0, DstIdx: 0, Count: 1},
			{Op: OpStore, Mem: MemOut, DRAMAddr: addr, SRAMIdx: 0, Count: 1},
			{Op: OpFinish},
		}
		// Patch Count for ALU ops (one block each).
		for i := range insns {
			if insns[i].Op == OpAlu {
				insns[i].Count = 1
			}
		}
		if err := ctx.Run(p, insns); err != nil {
			t.Error(err)
			return
		}
		out := make([]byte, OutBlockBytes)
		ctx.DtoH(p, out, addr)
		for o := 0; o < BlockOut; o++ {
			v := int32(o - 8)
			if v < 0 {
				v = 0
			}
			v = (v + 100) >> 1
			if int8(out[o]) != sat8(v) {
				t.Errorf("lane %d = %d, want %d", o, int8(out[o]), sat8(v))
			}
		}
	})
}

func TestScratchpadBoundsChecked(t *testing.T) {
	inSim(t, func(k *sim.Kernel, p *sim.Proc) {
		d := testNPU(k)
		ctx := d.CreateContext()
		addr, _ := ctx.MemAlloc(1 << 20)
		bad := []Insn{
			{Op: OpLoad, Mem: MemInp, DRAMAddr: addr, SRAMIdx: InpBufBlocks - 1, Count: 2},
		}
		if err := ctx.Run(p, bad); err == nil {
			t.Error("scratchpad overflow accepted")
		}
		bad2 := []Insn{{Op: OpGemm, AccIdx: AccBufBlocks, Count: 1}}
		if err := ctx.Run(p, bad2); err == nil {
			t.Error("gemm index overflow accepted")
		}
	})
}

func TestResetScrubsAndInvalidates(t *testing.T) {
	inSim(t, func(k *sim.Kernel, p *sim.Proc) {
		d := testNPU(k)
		ctx := d.CreateContext()
		addr, _ := ctx.MemAlloc(64)
		ctx.HtoD(p, addr, []byte("npu tenant secret..............."))
		backing, _ := ctx.Resolve(addr, 32)
		if _, err := runSecret(p, ctx); err != nil || scratchpadsClear(d) {
			t.Fatalf("the secret stream left nothing in the scratchpads (err %v): a vacuous check", err)
		}
		d.Reset()
		for _, b := range backing {
			if b != 0 {
				t.Error("NPU DRAM leaked across reset")
				return
			}
		}
		if _, err := ctx.MemAlloc(16); err != ErrStaleContext {
			t.Errorf("stale context: err = %v", err)
		}
		if !scratchpadsClear(d) {
			t.Error("scratchpads not scrubbed")
		}
	})
}

// runSecret gives a context one input and one weight block of ones, then runs
// a stream that multiplies them and commits the product to output block 0:
// afterwards all four scratchpads hold data derived from the context's DRAM.
// It returns the input block's address.
func runSecret(p *sim.Proc, c *Context) (uint64, error) {
	ones := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = 1
		}
		return b
	}
	inp, _ := c.MemAlloc(InpBlockBytes)
	wgt, _ := c.MemAlloc(WgtBlockBytes)
	if err := c.HtoD(p, inp, ones(InpBlockBytes)); err != nil {
		return 0, err
	}
	if err := c.HtoD(p, wgt, ones(WgtBlockBytes)); err != nil {
		return 0, err
	}
	return inp, c.Run(p, []Insn{
		{Op: OpLoad, Mem: MemInp, DRAMAddr: inp, Count: 1},
		{Op: OpLoad, Mem: MemWgt, DRAMAddr: wgt, Count: 1},
		{Op: OpGemm, Count: 1, Reset: true},
		{Op: OpCommit, Count: 1},
		{Op: OpFinish},
	})
}

// scratchpadsClear reports whether no scratchpad holds a non-zero lane.
func scratchpadsClear(d *Device) bool {
	for _, pad := range [][]byte{d.inp, d.wgt, d.out} {
		for _, b := range pad {
			if b != 0 {
				return false
			}
		}
	}
	for _, v := range d.acc {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestDestroyContextScrubsAndFrees: destroying an NPU mEnclave's context
// scrubs its DRAM and — its stream having run last — the shared scratchpads,
// and gives its DRAM back; a sibling context keeps its own.
func TestDestroyContextScrubsAndFrees(t *testing.T) {
	inSim(t, func(k *sim.Kernel, p *sim.Proc) {
		d := testNPU(k)
		sibling := d.CreateContext()
		sAddr, _ := sibling.MemAlloc(32)
		sibling.HtoD(p, sAddr, []byte("the sibling's data.............."))
		used := d.MemUsed()
		victim := d.CreateContext()
		inp, err := runSecret(p, victim)
		if err != nil {
			t.Error(err)
			return
		}
		backing, _ := victim.Resolve(inp, InpBlockBytes)
		d.DestroyContext(victim)
		for _, b := range backing {
			if b != 0 {
				t.Error("a destroyed context's DRAM was not scrubbed")
				break
			}
		}
		if !scratchpadsClear(d) {
			t.Error("a destroyed context's data is still in the scratchpads")
		}
		if got := d.MemUsed(); got != used {
			t.Errorf("device memory in use %d after the destroy, %d before the context", got, used)
		}
		if err := victim.HtoD(p, inp, []byte{1}); err == nil {
			t.Error("a destroyed context still resolves its pointers")
		}
		out := make([]byte, 32)
		if err := sibling.DtoH(p, out, sAddr); err != nil || string(out[:18]) != "the sibling's data" {
			t.Errorf("the sibling's DRAM after the destroy: %q, %v", out[:18], err)
		}
	})
}

// TestScratchpadsDoNotCrossContexts: a stream that STOREs the output
// scratchpad without computing into it reads zeros, never what another
// context's stream left there.
func TestScratchpadsDoNotCrossContexts(t *testing.T) {
	inSim(t, func(k *sim.Kernel, p *sim.Proc) {
		d := testNPU(k)
		a, b := d.CreateContext(), d.CreateContext()
		if _, err := runSecret(p, a); err != nil {
			t.Error(err)
			return
		}
		if scratchpadsClear(d) {
			t.Error("the secret stream left nothing in the scratchpads: a vacuous check")
			return
		}
		dst, _ := b.MemAlloc(OutBlockBytes)
		if err := b.Run(p, []Insn{{Op: OpStore, Mem: MemOut, DRAMAddr: dst, Count: 1}, {Op: OpFinish}}); err != nil {
			t.Error(err)
			return
		}
		out := make([]byte, OutBlockBytes)
		b.DtoH(p, out, dst)
		for _, v := range out {
			if v != 0 {
				t.Errorf("context b read context a's output block: %v", out)
				break
			}
		}
	})
}

// TestScratchpadsAllocatedByFirstRun: New allocates no scratchpad — a
// platform that never runs an NPU stream never pays for 448 KiB of them — a
// reset or a destroy before any stream leaves them unallocated, and the
// first stream's Run allocates all four at their full sizes.
func TestScratchpadsAllocatedByFirstRun(t *testing.T) {
	inSim(t, func(k *sim.Kernel, p *sim.Proc) {
		d := testNPU(k)
		c := d.CreateContext()
		d.DestroyContext(c)
		d.Reset()
		if d.inp != nil || d.wgt != nil || d.acc != nil || d.out != nil {
			t.Fatal("scratchpads allocated before any stream ran")
		}
		if _, err := runSecret(p, d.CreateContext()); err != nil {
			t.Fatal(err)
		}
		if len(d.inp) != InpBufBlocks*InpBlockBytes || len(d.wgt) != WgtBufBlocks*WgtBlockBytes ||
			len(d.acc) != AccBufBlocks*BlockOut || len(d.out) != OutBufBlocks*OutBlockBytes {
			t.Fatalf("scratchpads after the first run: inp %d wgt %d acc %d out %d", len(d.inp), len(d.wgt), len(d.acc), len(d.out))
		}
		if got := len(d.inp) + len(d.wgt) + 4*len(d.acc) + len(d.out); got != 448<<10 {
			t.Errorf("scratchpads hold %d bytes, want 448 KiB", got)
		}
	})
}

func TestDeviceAuthenticity(t *testing.T) {
	k := sim.NewKernel()
	d := testNPU(k)
	ch := []byte("challenge")
	if !attest.Verify(d.PubKey(), ch, d.Authenticate(ch)) {
		t.Fatal("genuine NPU signature rejected")
	}
}

// Property: GEMM with Reset over random blocks equals the int32 reference.
func TestGemmQuickProperty(t *testing.T) {
	inSim(t, func(k *sim.Kernel, p *sim.Proc) {
		d := testNPU(k)
		ctx := d.CreateContext()
		f := func(wSeed, iSeed uint8) bool {
			w := make([]byte, WgtBlockBytes)
			in := make([]byte, InpBlockBytes)
			for i := range w {
				w[i] = byte(int8((int(wSeed)+i*31)%11 - 5))
			}
			for i := range in {
				in[i] = byte(int8((int(iSeed)+i*17)%9 - 4))
			}
			wAddr, _ := ctx.MemAlloc(uint64(len(w)))
			iAddr, _ := ctx.MemAlloc(uint64(len(in)))
			oAddr, _ := ctx.MemAlloc(OutBlockBytes)
			ctx.HtoD(p, wAddr, w)
			ctx.HtoD(p, iAddr, in)
			insns := []Insn{
				{Op: OpLoad, Mem: MemWgt, DRAMAddr: wAddr, Count: 1},
				{Op: OpLoad, Mem: MemInp, DRAMAddr: iAddr, Count: 1},
				{Op: OpGemm, Count: 1, Reset: true},
				{Op: OpCommit, Count: 1},
				{Op: OpStore, Mem: MemOut, DRAMAddr: oAddr, Count: 1},
				{Op: OpFinish},
			}
			if err := ctx.Run(p, insns); err != nil {
				return false
			}
			got := make([]byte, OutBlockBytes)
			ctx.DtoH(p, got, oAddr)
			for o := 0; o < BlockOut; o++ {
				var ref int32
				for kk := 0; kk < BlockIn; kk++ {
					ref += int32(int8(w[o*BlockIn+kk])) * int32(int8(in[kk]))
				}
				if int8(got[o]) != sat8(ref) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Error(err)
		}
	})
}

// TestHostileInsnsAreTyped: a LOAD or STORE whose DRAM address wraps past
// 2^64, one of 2^31 blocks — which an int of 32 bits once sized to nothing —
// a GEMM whose index + i·stride wraps uint32 back into its scratchpad, an ALU
// or commit whose block range leaves or wraps it, and an instruction no stage
// runs are typed errors at every int width (make ci runs the suite under
// GOARCH=386 too), never a panic or a silent no-op, and the context runs the
// next stream.
func TestHostileInsnsAreTyped(t *testing.T) {
	inSim(t, func(k *sim.Kernel, p *sim.Proc) {
		c := testNPU(k).CreateContext()
		addr, err := c.MemAlloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		const wrap = 1<<64 - 10
		for _, tc := range []struct {
			name string
			in   Insn
			want error
		}{
			{"LOAD at 2^64-10", Insn{Op: OpLoad, Mem: MemInp, DRAMAddr: wrap, Count: 1}, ErrInvalidPointer},
			{"LOAD acc at 2^64-10", Insn{Op: OpLoad, Mem: MemAcc, DRAMAddr: wrap, Count: 1}, ErrInvalidPointer},
			{"STORE at 2^64-10", Insn{Op: OpStore, Mem: MemOut, DRAMAddr: wrap, Count: 1}, ErrInvalidPointer},
			{"LOAD of 2^31 blocks", Insn{Op: OpLoad, Mem: MemInp, DRAMAddr: addr, Count: 1 << 31}, ErrScratchpadOverflow},
			{"LOAD wgt of 2^32-1 blocks", Insn{Op: OpLoad, Mem: MemWgt, DRAMAddr: addr, SRAMIdx: 1, Count: 1<<32 - 1}, ErrScratchpadOverflow},
			{"STORE of 2^31 blocks", Insn{Op: OpStore, Mem: MemOut, DRAMAddr: addr, Count: 1 << 31}, ErrScratchpadOverflow},
			{"GEMM acc stride wrapping to block 1", Insn{Op: OpGemm, AccIdx: 5, AccStride: 1<<32 - 4, Count: 2}, ErrScratchpadOverflow},
			{"GEMM wgt stride wrapping to block 0", Insn{Op: OpGemm, WgtIdx: 1, WgtStride: 1<<32 - 1, Count: 2}, ErrScratchpadOverflow},
			{"GEMM inp stride wrapping to block 2", Insn{Op: OpGemm, InpIdx: 7, InpStride: 1<<32 - 5, Count: 2}, ErrScratchpadOverflow},
			{"ALU dst from block 2^32-1", Insn{Op: OpAlu, Alu: AluAdd, UseImm: true, DstIdx: 1<<32 - 1, Count: 2}, ErrScratchpadOverflow},
			{"ALU src past the accumulator", Insn{Op: OpAlu, Alu: AluAdd, SrcIdx: AccBufBlocks - 1, Count: 2}, ErrScratchpadOverflow},
			{"commit from block 2^32-1", Insn{Op: OpCommit, SrcIdx: 1<<32 - 1, Count: 1}, ErrScratchpadOverflow},
			{"commit to block 2^32-1", Insn{Op: OpCommit, DstIdx: 1<<32 - 1, Count: 1}, ErrScratchpadOverflow},
			{"opcode 99", Insn{Op: 99}, ErrInvalidInsn},
			{"ALU op 99", Insn{Op: OpAlu, Alu: 99, UseImm: true, Count: 1}, ErrInvalidInsn},
			{"LOAD into OUT", Insn{Op: OpLoad, Mem: MemOut, DRAMAddr: addr, Count: 1}, ErrInvalidInsn},
			{"STORE from INP", Insn{Op: OpStore, Mem: MemInp, DRAMAddr: addr, Count: 1}, ErrInvalidInsn},
		} {
			err := c.Run(p, []Insn{tc.in, {Op: OpFinish}})
			if !errors.Is(err, tc.want) {
				t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
			}
		}
		if err := c.Run(p, []Insn{{Op: OpStore, Mem: MemOut, DRAMAddr: addr, Count: 1}, {Op: OpFinish}}); err != nil {
			t.Errorf("the next stream: %v", err)
		}
	})
}
