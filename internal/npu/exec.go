package npu

import (
	"fmt"

	"cronus/internal/sim"
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
	if err := c.check(); err != nil {
		return err
	}
	c.dev.pipeline.Acquire(p, 1)
	defer c.dev.pipeline.Release(1)
	c.dev.allocScratchpads()
	if c.dev.last != c {
		// Another context ran last: its data must not reach this stream.
		c.dev.scrubScratchpads()
		c.dev.last = c
	}
	var cycles uint64
	for i := range insns {
		n, err := c.exec(&insns[i])
		if err != nil {
			return fmt.Errorf("npu: insn %d: %w", i, err)
		}
		cycles += n + issueCyclesPerOp
		if insns[i].Op == OpFinish {
			break
		}
	}
	p.Sleep(sim.Duration(float64(cycles) / c.dev.costs.NPUCyclePerNs))
	if err := c.check(); err != nil {
		return err // device reset while the stream was in flight
	}
	return nil
}

// CycleCount returns the modelled cycles of a stream without executing it.
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

func blockBytes(m Mem) int {
	switch m {
	case MemInp:
		return InpBlockBytes
	case MemWgt:
		return WgtBlockBytes
	case MemAcc:
		return AccBlockBytes
	case MemOut:
		return OutBlockBytes
	}
	return InpBlockBytes
}

func (c *Context) exec(in *Insn) (uint64, error) {
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
		if err := c.CommitOut(in.SrcIdx, in.DstIdx, in.Count); err != nil {
			return 0, err
		}
		return uint64(in.Count) * aluCyclesPerOp, nil
	case OpFinish:
		return finishCycles, nil
	}
	return 0, fmt.Errorf("unknown opcode %d", in.Op)
}

func (c *Context) load(in *Insn) (uint64, error) {
	bb := blockBytes(in.Mem)
	total := int(in.Count) * bb
	src, err := c.resolve(in.DRAMAddr, total)
	if err != nil {
		return 0, err
	}
	switch in.Mem {
	case MemInp:
		if int(in.SRAMIdx)+int(in.Count) > InpBufBlocks {
			return 0, fmt.Errorf("inp scratchpad overflow")
		}
		copy(c.dev.inp[int(in.SRAMIdx)*InpBlockBytes:], src)
	case MemWgt:
		if int(in.SRAMIdx)+int(in.Count) > WgtBufBlocks {
			return 0, fmt.Errorf("wgt scratchpad overflow")
		}
		copy(c.dev.wgt[int(in.SRAMIdx)*WgtBlockBytes:], src)
	case MemAcc:
		if int(in.SRAMIdx)+int(in.Count) > AccBufBlocks {
			return 0, fmt.Errorf("acc scratchpad overflow")
		}
		dst := c.dev.acc[int(in.SRAMIdx)*BlockOut:]
		for i := 0; i < int(in.Count)*BlockOut; i++ {
			dst[i] = int32(uint32(src[i*4]) | uint32(src[i*4+1])<<8 | uint32(src[i*4+2])<<16 | uint32(src[i*4+3])<<24)
		}
	default:
		return 0, fmt.Errorf("cannot LOAD into OUT scratchpad")
	}
	return loadSetupCycles + uint64(total)/bytesPerCycle, nil
}

func (c *Context) store(in *Insn) (uint64, error) {
	if in.Mem != MemOut {
		return 0, fmt.Errorf("STORE only writes the OUT scratchpad to DRAM")
	}
	total := int(in.Count) * OutBlockBytes
	if int(in.SRAMIdx)+int(in.Count) > OutBufBlocks {
		return 0, fmt.Errorf("out scratchpad overflow")
	}
	dst, err := c.resolve(in.DRAMAddr, total)
	if err != nil {
		return 0, err
	}
	copy(dst, c.dev.out[int(in.SRAMIdx)*OutBlockBytes:])
	return loadSetupCycles + uint64(total)/bytesPerCycle, nil
}

// gemm: for i in [0,Count): acc[AccIdx+i*AccStride] +=
// wgt[WgtIdx+i*WgtStride] × inp[InpIdx+i*InpStride]. The blocks are read
// through fixed-size array views, so no product is bounds-checked; the input
// lanes are widened once per block rather than once per weight, and each
// output lane's 16 products are one unrolled sum. int32 sums wrap, so the
// order they are added in changes no bit. A fixed bitset on the stack records
// which accumulator blocks Reset has zeroed. An index out of range stops the
// instruction there, with the blocks before it already accumulated.
func (c *Context) gemm(in *Insn) (uint64, error) {
	var reset [AccBufBlocks / 64]uint64
	for i := uint32(0); i < in.Count; i++ {
		ai := in.AccIdx + i*in.AccStride
		wi := in.WgtIdx + i*in.WgtStride
		ii := in.InpIdx + i*in.InpStride
		if ai >= AccBufBlocks || wi >= WgtBufBlocks || ii >= InpBufBlocks {
			return 0, fmt.Errorf("gemm scratchpad index out of range (acc=%d wgt=%d inp=%d)", ai, wi, ii)
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
	return uint64(in.Count) * gemmCyclesPerOp, nil
}

func (c *Context) alu(in *Insn) (uint64, error) {
	for i := uint32(0); i < in.Count; i++ {
		di := in.DstIdx + i
		if di >= AccBufBlocks {
			return 0, fmt.Errorf("alu dst index out of range")
		}
		dst := c.dev.acc[di*BlockOut : (di+1)*BlockOut]
		var src []int32
		if !in.UseImm {
			si := in.SrcIdx + i
			if si >= AccBufBlocks {
				return 0, fmt.Errorf("alu src index out of range")
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
				return 0, fmt.Errorf("unknown alu op %d", in.Alu)
			}
		}
	}
	return uint64(in.Count) * aluCyclesPerOp, nil
}

// CommitOut narrows accumulator blocks to int8 output blocks (the VTA
// pipeline's implicit ACC→OUT path before a STORE).
func (c *Context) CommitOut(accIdx, outIdx, count uint32) error {
	if accIdx+count > AccBufBlocks || outIdx+count > OutBufBlocks {
		return fmt.Errorf("npu: CommitOut out of range")
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
