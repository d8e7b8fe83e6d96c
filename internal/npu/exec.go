package npu

import (
	"errors"
	"fmt"

	"cronus/internal/sim"
)

// The typed refusals of an instruction stream: every error Run returns for
// what a stream asks, rather than for the context it runs on, wraps one.
var (
	// ErrScratchpadOverflow reports a block index past the end of its
	// scratchpad: a LOAD, STORE, GEMM, ALU or commit out of range.
	ErrScratchpadOverflow = errors.New("scratchpad overflow")
	// ErrInvalidInsn reports an instruction no pipeline stage runs: an
	// unknown opcode or ALU op, or a LOAD or STORE on the wrong scratchpad.
	ErrInvalidInsn = errors.New("invalid instruction")
)

// Cycle costs of the pipeline stages. LOAD/STORE move 16 bytes per cycle
// after a fixed DMA setup; the GEMM array retires one block operation
// (16×16 MACs) per cycle; the ALU retires one block per cycle.
const (
	loadSetupCycles  = 32
	bytesPerCycle    = 16
	gemmCyclesPerOp  = 1
	aluCyclesPerOp   = 1
	finishCycles     = 8
	issueCyclesPerOp = 1
)

// Run executes an instruction stream on the device: functionally (real
// arithmetic on scratchpads and DRAM) and temporally (the calling proc
// occupies the pipeline for the modelled cycle count). Streams from
// different contexts serialize on the single physical pipeline.
func (c *Context) Run(p *sim.Proc, insns []Insn) error {
	if err := c.Check(); err != nil {
		return err
	}
	c.dev.pipeline.Acquire(p, 1)
	defer c.dev.pipeline.Release(1)
	c.dev.takeScratchpads(c)
	for i := range insns {
		if err := c.exec(&insns[i]); err != nil {
			return fmt.Errorf("npu: insn %d: %w", i, err)
		}
		if insns[i].Op == OpFinish {
			break
		}
	}
	p.Sleep(sim.Duration(float64(CycleCount(insns)) / c.dev.costs.NPUCyclePerNs))
	if err := c.Check(); err != nil {
		return err // device reset while the stream was in flight
	}
	return nil
}

// CycleCount returns the modelled cycles of a stream, up to and including its
// first FINISH: what Run charges once the stream has executed.
func CycleCount(insns []Insn) uint64 {
	var cycles uint64
	for i := range insns {
		in := &insns[i]
		cycles += issueCyclesPerOp
		switch in.Op {
		case OpLoad, OpStore:
			cycles += loadSetupCycles + uint64(in.Count)*uint64(blockBytes(in.Mem))/bytesPerCycle
		case OpGemm:
			cycles += uint64(in.Count) * gemmCyclesPerOp
		case OpAlu, OpCommit:
			cycles += uint64(in.Count) * aluCyclesPerOp
		case OpFinish:
			cycles += finishCycles
		}
		if in.Op == OpFinish {
			break
		}
	}
	return cycles
}

// blockBytes is the size of a block of m's scratchpad; an unknown m's is INP's.
func blockBytes(m Mem) int {
	if m > MemOut {
		return InpBlockBytes
	}
	return [...]int{InpBlockBytes, WgtBlockBytes, AccBlockBytes, OutBlockBytes}[m]
}

func (c *Context) exec(in *Insn) error {
	switch in.Op {
	case OpLoad:
		return c.load(in)
	case OpStore:
		return c.store(in)
	case OpGemm:
		return c.gemm(in)
	case OpAlu:
		return c.alu(in)
	case OpCommit:
		return c.CommitOut(in.SrcIdx, in.DstIdx, in.Count)
	case OpFinish:
		return nil
	}
	return fmt.Errorf("opcode %d: %w", in.Op, ErrInvalidInsn)
}

func (c *Context) load(in *Insn) error {
	if in.Mem > MemAcc {
		return fmt.Errorf("LOAD into scratchpad %d, not INP, WGT or ACC: %w", in.Mem, ErrInvalidInsn)
	}
	src, err := c.dram(in)
	if err != nil {
		return err
	}
	switch at := int(in.SRAMIdx) * blockBytes(in.Mem); in.Mem {
	case MemInp:
		copy(c.dev.inp[at:], src)
	case MemWgt:
		copy(c.dev.wgt[at:], src)
	default:
		dst := c.dev.acc[int(in.SRAMIdx)*BlockOut:]
		for i := range dst[:int(in.Count)*BlockOut] {
			dst[i] = int32(uint32(src[i*4]) | uint32(src[i*4+1])<<8 | uint32(src[i*4+2])<<16 | uint32(src[i*4+3])<<24)
		}
	}
	return nil
}

func (c *Context) store(in *Insn) error {
	if in.Mem != MemOut {
		return fmt.Errorf("STORE from scratchpad %d, not OUT: %w", in.Mem, ErrInvalidInsn)
	}
	dst, err := c.dram(in)
	if err != nil {
		return err
	}
	copy(dst, c.dev.out[int(in.SRAMIdx)*OutBlockBytes:])
	return nil
}

// dram holds a LOAD's or STORE's blocks to its scratchpad in uint64, where no
// int width wraps, before it resolves the DRAM they move.
func (c *Context) dram(in *Insn) ([]byte, error) {
	blocks := [...]uint64{InpBufBlocks, WgtBufBlocks, AccBufBlocks, OutBufBlocks}
	if uint64(in.SRAMIdx)+uint64(in.Count) > blocks[in.Mem] {
		return nil, fmt.Errorf("%s %w", [...]string{"inp", "wgt", "acc", "out"}[in.Mem], ErrScratchpadOverflow)
	}
	return c.Resolve(in.DRAMAddr, int(in.Count)*blockBytes(in.Mem))
}

// gemm: for i in [0,Count): acc[AccIdx+i*AccStride] +=
// wgt[WgtIdx+i*WgtStride] × inp[InpIdx+i*InpStride]. The blocks are read
// through fixed-size array views, so no product is bounds-checked; the input
// lanes are widened once per block rather than once per weight, and each
// output lane's 16 products are one unrolled sum. int32 sums wrap, so the
// order they are added in changes no bit. A fixed bitset on the stack records
// which accumulator blocks Reset has zeroed. An index out of range stops the
// instruction there, with the blocks before it already accumulated. Indices
// are summed in uint64, where index + i·stride of two uint32s cannot wrap
// back into range.
func (c *Context) gemm(in *Insn) error {
	var reset [AccBufBlocks / 64]uint64
	for i := uint64(0); i < uint64(in.Count); i++ {
		ai := uint64(in.AccIdx) + i*uint64(in.AccStride)
		wi := uint64(in.WgtIdx) + i*uint64(in.WgtStride)
		ii := uint64(in.InpIdx) + i*uint64(in.InpStride)
		if ai >= AccBufBlocks || wi >= WgtBufBlocks || ii >= InpBufBlocks {
			return fmt.Errorf("gemm blocks acc=%d wgt=%d inp=%d: %w", ai, wi, ii, ErrScratchpadOverflow)
		}
		acc := (*[BlockOut]int32)(c.dev.acc[ai*BlockOut:])
		if in.Reset && reset[ai/64]&(1<<(ai%64)) == 0 {
			*acc = [BlockOut]int32{}
			reset[ai/64] |= 1 << (ai % 64)
		}
		wgt := (*[WgtBlockBytes]byte)(c.dev.wgt[wi*WgtBlockBytes:])
		var x [BlockIn]int32
		for k, v := range (*[BlockIn]byte)(c.dev.inp[ii*InpBlockBytes:]) {
			x[k] = int32(int8(v))
		}
		for o := range acc {
			w := (*[BlockIn]byte)(wgt[o*BlockIn:])
			acc[o] += int32(int8(w[0]))*x[0] + int32(int8(w[1]))*x[1] + int32(int8(w[2]))*x[2] + int32(int8(w[3]))*x[3] +
				int32(int8(w[4]))*x[4] + int32(int8(w[5]))*x[5] + int32(int8(w[6]))*x[6] + int32(int8(w[7]))*x[7] +
				int32(int8(w[8]))*x[8] + int32(int8(w[9]))*x[9] + int32(int8(w[10]))*x[10] + int32(int8(w[11]))*x[11] +
				int32(int8(w[12]))*x[12] + int32(int8(w[13]))*x[13] + int32(int8(w[14]))*x[14] + int32(int8(w[15]))*x[15]
		}
	}
	return nil
}

// alu sums its block indices in uint64, as gemm does.
func (c *Context) alu(in *Insn) error {
	for i := uint64(0); i < uint64(in.Count); i++ {
		di := uint64(in.DstIdx) + i
		if di >= AccBufBlocks {
			return fmt.Errorf("alu dst block %d: %w", di, ErrScratchpadOverflow)
		}
		dst := c.dev.acc[di*BlockOut : (di+1)*BlockOut]
		var src []int32
		if !in.UseImm {
			si := uint64(in.SrcIdx) + i
			if si >= AccBufBlocks {
				return fmt.Errorf("alu src block %d: %w", si, ErrScratchpadOverflow)
			}
			src = c.dev.acc[si*BlockOut : (si+1)*BlockOut]
		}
		for o := 0; o < BlockOut; o++ {
			operand := in.Imm
			if !in.UseImm {
				operand = src[o]
			}
			switch in.Alu {
			case AluAdd:
				dst[o] += operand
			case AluMax:
				if operand > dst[o] {
					dst[o] = operand
				}
			case AluMin:
				if operand < dst[o] {
					dst[o] = operand
				}
			case AluShr:
				sh := operand & 31
				dst[o] >>= uint(sh)
			default:
				return fmt.Errorf("alu op %d: %w", in.Alu, ErrInvalidInsn)
			}
		}
	}
	return nil
}

// CommitOut narrows accumulator blocks to int8 output blocks (the VTA
// pipeline's implicit ACC→OUT path before a STORE).
func (c *Context) CommitOut(accIdx, outIdx, count uint32) error {
	if uint64(accIdx)+uint64(count) > AccBufBlocks || uint64(outIdx)+uint64(count) > OutBufBlocks {
		return fmt.Errorf("npu: commit of %d blocks acc=%d out=%d: %w", count, accIdx, outIdx, ErrScratchpadOverflow)
	}
	for i := uint32(0); i < count; i++ {
		acc := c.dev.acc[(accIdx+i)*BlockOut : (accIdx+i+1)*BlockOut]
		out := c.dev.out[(outIdx+i)*OutBlockBytes : (outIdx+i+1)*OutBlockBytes]
		for o := 0; o < BlockOut; o++ {
			v := acc[o]
			if v > 127 {
				v = 127
			}
			if v < -128 {
				v = -128
			}
			out[o] = byte(v)
		}
	}
	return nil
}
