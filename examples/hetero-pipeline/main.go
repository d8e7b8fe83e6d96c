// Heterogeneous pipeline example — the paper's core scenario (Figure 2):
// one protected application spans THREE mutually isolated partitions. The
// CPU mEnclave preprocesses, a CUDA mEnclave runs the float feature
// extraction, and an NPU mEnclave runs the quantized int8 classifier — all
// stitched together with streaming RPC, each partition trusting only
// itself, and the app needing to trust only the partitions it uses (R3.2).
package main

import (
	"fmt"
	"log"

	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/metrics"
	"cronus/internal/sim"
	"cronus/internal/workload/vtabench"
)

func main() {
	metrics.Default.Enable()
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "pipeline")
		if err != nil {
			return err
		}
		g, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("matmul", "relu")})
		if err != nil {
			return err
		}
		defer g.Close(p)
		n, err := s.OpenNPU(p, core.NPUOptions{RingPages: 65})
		if err != nil {
			return err
		}
		defer n.Close(p)
		if err := s.Attest(p, 123); err != nil {
			return err
		}
		fmt.Println("attested: CPU session + CUDA mEnclave + NPU mEnclave (3 isolated partitions)")

		// ① CPU stage: "decode" the input inside the session enclave.
		const batch, feat = 4, 32
		input := make([]float32, batch*feat)
		for i := range input {
			input[i] = float32((i*7)%13) / 13
		}

		// ② GPU stage: feature extraction (matmul + ReLU), streamed.
		w := make([]float32, feat*feat)
		for i := range w {
			w[i] = float32((i*31)%17-8) / 64
		}
		gw, _ := g.MemAlloc(p, feat*feat*4)
		gx, _ := g.MemAlloc(p, batch*feat*4)
		gy, _ := g.MemAlloc(p, batch*feat*4)
		start := p.Now()
		g.HtoD(p, gw, gpu.Bytes(w))
		g.HtoD(p, gx, gpu.Bytes(input))
		g.Launch(p, "matmul", gpu.Dim{1, 1, 1}, gx, gw, gy, batch, feat, feat)
		g.Launch(p, "relu", gpu.Dim{batch * feat, 1, 1}, gy, gy)
		features, err := g.DtoH(p, gy, batch*feat*4)
		if err != nil {
			return err
		}
		gpuDone := p.Now()

		// ③ Quantize in the CPU enclave (float32 → int8) and hand the
		// tensor to the NPU mEnclave over its own trusted stream.
		f := gpu.UnpackF32(features)
		q := make([]byte, len(f))
		for i, v := range f {
			x := int32(v * 32)
			if x > 127 {
				x = 127
			}
			if x < -128 {
				x = -128
			}
			q[i] = byte(int8(x))
		}

		// ④ NPU stage: int8 GEMM classifier.
		const classes = 16
		wq := make([]byte, feat*classes)
		for i := range wq {
			wq[i] = byte(int8((i*5)%7 - 3))
		}
		packed := vtabench.PackWeights(wq, feat, classes)
		na, _ := n.MemAlloc(p, uint64(len(q)))
		nw, _ := n.MemAlloc(p, uint64(len(packed)))
		nc, _ := n.MemAlloc(p, batch*classes)
		n.HtoD(p, na, q)
		n.HtoD(p, nw, packed)
		if err := n.Run(p, vtabench.MatmulProgram(na, nw, nc, batch, classes, feat)); err != nil {
			return err
		}
		logits, err := n.DtoH(p, nc, batch*classes)
		if err != nil {
			return err
		}
		npuDone := p.Now()

		for b := 0; b < batch; b++ {
			best, bestV := 0, int8(-128)
			for c := 0; c < classes; c++ {
				if v := int8(logits[b*classes+c]); v > bestV {
					bestV, best = v, c
				}
			}
			fmt.Printf("sample %d → class %d (logit %d)\n", b, best, bestV)
		}
		fmt.Printf("\nGPU stage %v, NPU stage %v — three partitions, zero mutual trust\n",
			sim.Duration(gpuDone-start), sim.Duration(npuDone-gpuDone))
		snap := metrics.Default.Snapshot()
		fmt.Printf("stream stats: %d mECalls over %d streams, %d GPU launches / %d NPU programs\n",
			snap.Counters["srpc.calls"], snap.Counters["srpc.streams.opened"],
			snap.Counters["driver.gpu.kernel_launches"], snap.Counters["driver.npu.runs"])

		// R3.2 in action: this app never created an enclave in, nor
		// shares memory with, any partition beyond the three it attested.
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
