// Package tvm is the TVM-style compiler of the reproduction (§VI-C): it
// lowers layer graphs (ResNet18, ResNet50, YoloV3) to VTA instruction
// streams and runs quantized int8 inference on the NPU through any
// accel.NPU implementation, keeping activations device-resident between
// layers. It also models CPU-fallback inference for the Figure 10b CPU
// bars.
package tvm

import (
	"fmt"
	"sync"

	"cronus/internal/accel"
	"cronus/internal/dnn"
	"cronus/internal/npu"
	"cronus/internal/sim"
	"cronus/internal/workload"
)

// Graph is an inference network: a named sequence of matmul-lowered layers.
// Share one by pointer; a Graph is not copied once it has been compiled.
type Graph struct {
	Name   string
	Layers []dnn.Layer

	lower   sync.Once
	weights [][]byte // see packedWeights
}

// packedWeights returns each layer's synthetic int8 weights, laid out as the
// NPU's weight blocks: per layer, roundUp(K, 16)·roundUp(N, 16) values in
// [−3, 3] drawn in block order by the filler of seed 99 running through the
// layers in order (workload.Filler.Int8s). They are a function of the graph
// alone, so they are drawn once and shared, read-only, by every engine
// compiled from it — on whichever simulation, concurrently or not.
func (g *Graph) packedWeights() [][]byte {
	g.lower.Do(func() { g.weights = g.drawWeights(weightSeed) })
	return g.weights
}

// weightSeed is the seed of every graph's weights.
const weightSeed = 99

// drawWeights draws the layers' packed weights from the filler of seed, in
// one pass over one allocation that the layers' slices then divide.
func (g *Graph) drawWeights(seed uint64) [][]byte {
	all := make([]byte, g.weightBytes())
	workload.NewFiller(seed).Int8s(all, -3, 3)
	weights := make([][]byte, len(g.Layers))
	for li, l := range g.Layers {
		n := roundUp(l.K, npu.BlockIn) * roundUp(l.N, npu.BlockOut)
		weights[li], all = all[:n:n], all[n:]
	}
	return weights
}

// weightBytes is the size of the graph's packed weights.
func (g *Graph) weightBytes() int {
	n := 0
	for _, l := range g.Layers {
		n += roundUp(l.K, npu.BlockIn) * roundUp(l.N, npu.BlockOut)
	}
	return n
}

// FLOPs returns total inference FLOPs (batch 1).
func (g *Graph) FLOPs() float64 {
	var s float64
	for _, l := range g.Layers {
		s += l.FLOPs(1)
	}
	return s
}

// FromModel converts a training model definition into an inference graph.
func FromModel(m *dnn.Model) *Graph {
	return &Graph{Name: m.Name, Layers: m.Layers}
}

// ResNet18 (channels scaled /16, spatial /4 like the training models).
func ResNet18() *Graph {
	var ls []dnn.Layer
	ls = append(ls, dnn.Layer{Name: "stem", Spatial: 64, K: 3 * 49, N: 16})
	idx := 0
	stage := func(blocks, spatial, cin, cout int) {
		for b := 0; b < blocks; b++ {
			in := cout
			if b == 0 {
				in = cin
			}
			ls = append(ls,
				dnn.Layer{Name: fmt.Sprintf("b%d.1", idx), Spatial: spatial, K: in * 9, N: cout},
				dnn.Layer{Name: fmt.Sprintf("b%d.2", idx), Spatial: spatial, K: cout * 9, N: cout},
			)
			idx++
		}
	}
	stage(2, 64, 16, 16)
	stage(2, 16, 16, 32)
	stage(2, 4, 32, 64)
	stage(2, 1, 64, 128)
	ls = append(ls, dnn.Layer{Name: "fc", Spatial: 1, K: 128, N: 10})
	return &Graph{Name: "ResNet18", Layers: ls}
}

// ResNet50 reuses the training definition.
func ResNet50() *Graph { return FromModel(dnn.ResNet50()) }

// YoloV3: Darknet-53 backbone plus detection heads (scaled /16) — the
// layer-heaviest inference graph (~75 convs).
func YoloV3() *Graph {
	var ls []dnn.Layer
	conv := func(name string, spatial, cin, cout int) {
		ls = append(ls, dnn.Layer{Name: name, Spatial: spatial, K: cin * 9, N: cout})
	}
	conv("stem", 64, 3, 8)
	idx := 0
	res := func(n, spatial, ch int) {
		conv(fmt.Sprintf("down%d", idx), spatial, ch/2, ch)
		for i := 0; i < n; i++ {
			conv(fmt.Sprintf("r%d.a", idx), spatial, ch, ch/2)
			conv(fmt.Sprintf("r%d.b", idx), spatial, ch/2, ch)
			idx++
		}
	}
	res(1, 64, 16)
	res(2, 16, 32)
	res(8, 8, 64)
	res(8, 4, 128)
	res(4, 2, 256)
	// Detection heads.
	for h := 0; h < 3; h++ {
		for i := 0; i < 3; i++ {
			conv(fmt.Sprintf("head%d.%d", h, i), 2, 256>>h, 128>>h)
		}
	}
	return &Graph{Name: "YoloV3", Layers: ls}
}

// InferenceGraphs returns the Figure 10b networks in paper order.
func InferenceGraphs() []*Graph {
	return []*Graph{ResNet18(), ResNet50(), YoloV3()}
}

func roundUp(v, m int) int { return (v + m - 1) / m * m }

// Engine is a compiled inference engine bound to one NPU context.
type Engine struct {
	Graph *Graph
	ops   accel.NPU

	progs  [][]npu.Insn
	inAddr uint64 // raw input upload
	arenaA uint64 // ping-pong activation arenas (device resident)
	arenaB uint64
	outLen int // final layer output bytes
	InLen  int // input bytes per inference
}

// Compile uploads the graph's quantized synthetic weights, allocates the
// activation arenas and emits one instruction stream per layer.
func Compile(p *sim.Proc, ops accel.NPU, g *Graph) (*Engine, error) {
	weights := g.packedWeights()
	maxBuf := 0
	for _, l := range g.Layers {
		k := roundUp(l.K, npu.BlockIn)
		n := roundUp(l.N, npu.BlockOut)
		if s := l.Spatial * k; s > maxBuf {
			maxBuf = s
		}
		if s := l.Spatial * n; s > maxBuf {
			maxBuf = s
		}
	}
	e := &Engine{Graph: g, ops: ops}
	var err error
	first := g.Layers[0]
	e.InLen = first.Spatial * roundUp(first.K, npu.BlockIn)
	if e.inAddr, err = ops.MemAlloc(p, uint64(e.InLen)); err != nil {
		return nil, err
	}
	if e.arenaA, err = ops.MemAlloc(p, uint64(maxBuf)); err != nil {
		return nil, err
	}
	if e.arenaB, err = ops.MemAlloc(p, uint64(maxBuf)); err != nil {
		return nil, err
	}
	src, dst := e.arenaA, e.arenaB
	for li, l := range g.Layers {
		k := roundUp(l.K, npu.BlockIn)
		n := roundUp(l.N, npu.BlockOut)
		// Scratchpad capacity limits the weight tile: split N if needed.
		kb := k / npu.BlockIn
		maxNb := npu.WgtBufBlocks / kb
		if maxNb == 0 {
			return nil, fmt.Errorf("tvm: layer %s contraction %d exceeds the weight scratchpad", l.Name, k)
		}
		packed := weights[li]
		wAddr, err := ops.MemAlloc(p, uint64(len(packed)))
		if err != nil {
			return nil, err
		}
		if err := ops.HtoD(p, wAddr, packed); err != nil {
			return nil, err
		}
		in := src
		if li == 0 {
			in = e.inAddr
		}
		// Each tile is a weight load, then per row an input load, a GEMM per
		// output block, and a ReLU, a commit and a store; a finish ends it.
		nb := n / npu.BlockOut
		tiles := (nb + maxNb - 1) / maxNb
		prog := make([]npu.Insn, 0, tiles*(1+4*l.Spatial)+l.Spatial*nb+1)
		for base := 0; base < nb; base += maxNb {
			cnt := maxNb
			if cnt > nb-base {
				cnt = nb - base
			}
			prog = tileProgram(prog, in, wAddr+uint64(base*kb*npu.WgtBlockBytes),
				dst+uint64(base*npu.BlockOut), l.Spatial, cnt, kb, n)
		}
		prog = append(prog, npu.Insn{Op: npu.OpFinish})
		e.progs = append(e.progs, prog)
		e.outLen = l.Spatial * n
		src, dst = dst, src
	}
	// After the loop, src holds the final output arena.
	e.arenaA, e.arenaB = src, dst
	return e, nil
}

// tileProgram appends to insns the stream computing cnt output blocks of one
// layer tile: for each spatial row, load the input row, GEMM over kb blocks
// per output block, commit and store with the full-row stride.
func tileProgram(insns []npu.Insn, inAddr, wAddr, outAddr uint64, rows, cnt, kb, rowStride int) []npu.Insn {
	insns = append(insns, npu.Insn{Op: npu.OpLoad, Mem: npu.MemWgt, DRAMAddr: wAddr, Count: uint32(cnt * kb)})
	for r := 0; r < rows; r++ {
		insns = append(insns, npu.Insn{
			Op: npu.OpLoad, Mem: npu.MemInp,
			DRAMAddr: inAddr + uint64(r*kb*npu.BlockIn), Count: uint32(kb),
		})
		for j := 0; j < cnt; j++ {
			insns = append(insns, npu.Insn{
				Op:     npu.OpGemm,
				InpIdx: 0, InpStride: 1,
				WgtIdx: uint32(j * kb), WgtStride: 1,
				AccIdx: uint32(j), AccStride: 0,
				Count: uint32(kb), Reset: true,
			})
		}
		insns = append(insns,
			npu.Insn{Op: npu.OpAlu, Alu: npu.AluMax, UseImm: true, Imm: 0, Count: uint32(cnt)}, // ReLU
			npu.Insn{Op: npu.OpCommit, Count: uint32(cnt)},
			npu.Insn{Op: npu.OpStore, Mem: npu.MemOut, DRAMAddr: outAddr + uint64(r*rowStride), Count: uint32(cnt)},
		)
	}
	return insns
}

// Infer runs one inference: input upload, per-layer streams, result
// download. It returns the output logits (int8).
func (e *Engine) Infer(p *sim.Proc, input []byte) ([]byte, error) {
	if len(input) > e.InLen {
		input = input[:e.InLen]
	}
	if err := e.ops.HtoD(p, e.inAddr, input); err != nil {
		return nil, err
	}
	for _, prog := range e.progs {
		if err := e.ops.Run(p, prog); err != nil {
			return nil, err
		}
	}
	out, err := e.ops.DtoH(p, e.arenaA, e.outLen)
	if err != nil {
		return nil, err
	}
	return out, e.ops.Sync(p)
}

// CPUInferenceTime models running the same graph on the CPU enclave
// (Figure 10b's CPU bars): quantized inference at a calibrated scalar rate.
const cpuFlopsPerNs = 4.0

// CPUInfer charges the CPU-side inference time for the graph.
func CPUInfer(p *sim.Proc, g *Graph) sim.Duration {
	d := sim.Duration(g.FLOPs() / cpuFlopsPerNs)
	p.Sleep(d)
	return d
}
