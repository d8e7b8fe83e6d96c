// Package vtabench reproduces the vta-bench NPU microbenchmarks used in
// Figure 10a: tiled GEMM, vector ALU sweeps, and a small convolution, each
// expressed as VTA instruction streams that run functionally on the NPU
// simulator through any accel.NPU implementation.
package vtabench

import (
	"fmt"

	"cronus/internal/accel"
	"cronus/internal/npu"
	"cronus/internal/sim"
	"cronus/internal/workload"
)

// Benchmark is one vta-bench workload.
type Benchmark struct {
	Name string
	seed uint64 // of the filler a pass draws its operands from
	run  func(p *sim.Proc, ops accel.NPU, f *workload.Filler) (int, error)
}

// Run executes one pass and returns the number of NPU "operations" (GEMM
// block ops + ALU block ops) performed, for throughput reports. Its operands
// are int8 values in [−4, 4], drawn by the filler of the benchmark's seed
// straight into the buffers HtoD uploads; a GEMM's weights are drawn in VTA
// block order.
func (b Benchmark) Run(p *sim.Proc, ops accel.NPU) (int, error) {
	return b.run(p, ops, workload.NewFiller(b.seed))
}

// All returns the vta-bench suite.
func All() []Benchmark {
	return []Benchmark{GEMM(64, 64, 64), GEMM(128, 64, 128), ALU(4096), Conv(16, 16, 16, 16)}
}

// operands returns n int8 operands drawn by f.
func operands(f *workload.Filler, n int) []byte {
	b := make([]byte, n)
	f.Int8s(b, -4, 4)
	return b
}

// PackWeights lays out B[K×N] int8 as VTA weight blocks W[nb][kb][o][k]
// with W[nb][kb][o][k] = B[kb·16+k][nb·16+o].
func PackWeights(b []byte, kk, n int) []byte {
	nb := n / npu.BlockOut
	kb := kk / npu.BlockIn
	out := make([]byte, nb*kb*npu.WgtBlockBytes)
	idx := 0
	for j := 0; j < nb; j++ {
		for t := 0; t < kb; t++ {
			for o := 0; o < npu.BlockOut; o++ {
				for k := 0; k < npu.BlockIn; k++ {
					out[idx] = b[(t*npu.BlockIn+k)*n+j*npu.BlockOut+o]
					idx++
				}
			}
		}
	}
	return out
}

// MatmulProgram emits the instruction stream for C[M×N] = A[M×K] × B with
// packed weights at wAddr (N, K multiples of 16).
func MatmulProgram(aAddr, wAddr, cAddr uint64, m, n, kk int) []npu.Insn {
	nb := n / npu.BlockOut
	kb := kk / npu.BlockIn
	var insns []npu.Insn
	insns = append(insns, npu.Insn{Op: npu.OpLoad, Mem: npu.MemWgt, DRAMAddr: wAddr, Count: uint32(nb * kb)})
	for row := 0; row < m; row++ {
		insns = append(insns, npu.Insn{
			Op: npu.OpLoad, Mem: npu.MemInp,
			DRAMAddr: aAddr + uint64(row*kk), Count: uint32(kb),
		})
		for j := 0; j < nb; j++ {
			insns = append(insns, npu.Insn{
				Op:     npu.OpGemm,
				InpIdx: 0, InpStride: 1,
				WgtIdx: uint32(j * kb), WgtStride: 1,
				AccIdx: uint32(j), AccStride: 0,
				Count: uint32(kb), Reset: true,
			})
		}
		insns = append(insns,
			npu.Insn{Op: npu.OpCommit, SrcIdx: 0, DstIdx: 0, Count: uint32(nb)},
			npu.Insn{Op: npu.OpStore, Mem: npu.MemOut, DRAMAddr: cAddr + uint64(row*n), Count: uint32(nb)},
		)
	}
	insns = append(insns, npu.Insn{Op: npu.OpFinish})
	return insns
}

// GEMM is the tiled matrix multiply benchmark.
func GEMM(m, k, n int) Benchmark {
	return Benchmark{
		Name: fmt.Sprintf("gemm-%dx%dx%d", m, k, n),
		seed: 1,
		run: func(p *sim.Proc, ops accel.NPU, f *workload.Filler) (int, error) {
			a := operands(f, m*k)
			w := operands(f, k*n)
			aAddr, err := ops.MemAlloc(p, uint64(len(a)))
			if err != nil {
				return 0, err
			}
			wAddr, err := ops.MemAlloc(p, uint64(len(w)))
			if err != nil {
				return 0, err
			}
			cAddr, err := ops.MemAlloc(p, uint64(m*n))
			if err != nil {
				return 0, err
			}
			if err := ops.HtoD(p, aAddr, a); err != nil {
				return 0, err
			}
			if err := ops.HtoD(p, wAddr, w); err != nil {
				return 0, err
			}
			prog := MatmulProgram(aAddr, wAddr, cAddr, m, n, k)
			if err := ops.Run(p, prog); err != nil {
				return 0, err
			}
			if _, err := ops.DtoH(p, cAddr, m*n); err != nil {
				return 0, err
			}
			if err := ops.Sync(p); err != nil {
				return 0, err
			}
			return m * (n / npu.BlockOut) * (k / npu.BlockIn), nil
		},
	}
}

// ALU is the vector ALU sweep benchmark: load accumulators, run a chain of
// lane-wise operations, store the narrowed results.
func ALU(blocks int) Benchmark {
	if blocks > npu.AccBufBlocks {
		blocks = npu.AccBufBlocks
	}
	return Benchmark{
		Name: fmt.Sprintf("alu-%d", blocks),
		seed: 3,
		run: func(p *sim.Proc, ops accel.NPU, f *workload.Filler) (int, error) {
			accBytes := operands(f, blocks*npu.AccBlockBytes)
			addr, err := ops.MemAlloc(p, uint64(len(accBytes)))
			if err != nil {
				return 0, err
			}
			outAddr, err := ops.MemAlloc(p, uint64(blocks*npu.OutBlockBytes))
			if err != nil {
				return 0, err
			}
			if err := ops.HtoD(p, addr, accBytes); err != nil {
				return 0, err
			}
			nOps := 0
			// Process in scratchpad-sized batches.
			chunk := npu.OutBufBlocks
			if chunk > npu.AccBufBlocks {
				chunk = npu.AccBufBlocks
			}
			for base := 0; base < blocks; base += chunk {
				cnt := chunk
				if cnt > blocks-base {
					cnt = blocks - base
				}
				insns := []npu.Insn{
					{Op: npu.OpLoad, Mem: npu.MemAcc, DRAMAddr: addr + uint64(base*npu.AccBlockBytes), Count: uint32(cnt)},
					{Op: npu.OpAlu, Alu: npu.AluMax, UseImm: true, Imm: 0, Count: uint32(cnt)},
					{Op: npu.OpAlu, Alu: npu.AluAdd, UseImm: true, Imm: 7, Count: uint32(cnt)},
					{Op: npu.OpAlu, Alu: npu.AluShr, UseImm: true, Imm: 2, Count: uint32(cnt)},
					{Op: npu.OpCommit, Count: uint32(cnt)},
					{Op: npu.OpStore, Mem: npu.MemOut, DRAMAddr: outAddr + uint64(base*npu.OutBlockBytes), Count: uint32(cnt)},
					{Op: npu.OpFinish},
				}
				if err := ops.Run(p, insns); err != nil {
					return 0, err
				}
				nOps += 3 * cnt
			}
			if _, err := ops.DtoH(p, outAddr, blocks*npu.OutBlockBytes); err != nil {
				return 0, err
			}
			if err := ops.Sync(p); err != nil {
				return 0, err
			}
			return nOps, nil
		},
	}
}

// Conv is a small convolution lowered to GEMM tiles (HWCN-style): spatial
// positions × (Cin·9 → Cout) with 16-lane blocking.
func Conv(h, w, cin, cout int) Benchmark {
	return Benchmark{
		Name: fmt.Sprintf("conv-%dx%dx%d-%d", h, w, cin, cout),
		seed: 1,
		run: func(p *sim.Proc, ops accel.NPU, f *workload.Filler) (int, error) {
			m := h * w
			k := ((cin*9 + npu.BlockIn - 1) / npu.BlockIn) * npu.BlockIn
			n := ((cout + npu.BlockOut - 1) / npu.BlockOut) * npu.BlockOut
			return GEMM(m, k, n).run(p, ops, f)
		},
	}
}
