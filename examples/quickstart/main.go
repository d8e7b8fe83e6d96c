// Quickstart: boot a CRONUS platform, attest it, create a protected session
// whose CPU mEnclave drives a CUDA mEnclave over streaming RPC, and run a
// vector addition on the (simulated) GPU — the paper's Figure 2/4 workflow
// end to end.
package main

import (
	"fmt"
	"log"

	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/metrics"
	"cronus/internal/sim"
)

func main() {
	metrics.Default.Enable()
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		fmt.Println("== CRONUS quickstart ==")
		fmt.Printf("platform: %d partition(s), GPU %s (%.0f SMs), NPU %s\n",
			len(pl.SPM.Partitions()), pl.GPUs[0].Dev.Name(), pl.GPUs[0].Dev.SMs(), pl.NPUs[0].Dev.Name())

		// ① The application creates its protected session (a CPU
		// mEnclave) and checks the sealed channel.
		s, err := pl.NewSession(p, "quickstart")
		if err != nil {
			return err
		}
		echo, err := s.Ping(p, []byte("hello secure world"))
		if err != nil {
			return err
		}
		fmt.Printf("sealed mECall round trip: %q\n", echo)

		// ② The session creates a CUDA mEnclave; CRONUS performs local
		// attestation, maps trusted shared memory, runs dCheck, and
		// starts the executor thread.
		g, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add")})
		if err != nil {
			return err
		}
		defer g.Close(p)
		fmt.Printf("CUDA mEnclave %#x connected over sRPC\n", g.EID)

		// ③ The user remote-attests the whole closure: both enclaves,
		// every mOS, and the frozen device tree.
		if err := s.Attest(p, 42); err != nil {
			return fmt.Errorf("remote attestation failed: %w", err)
		}
		fmt.Println("remote attestation: platform report verified (RoT → AtK → report; vendor-endorsed GPU key)")

		// ④ Stream work to the GPU: two async uploads, an async launch,
		// and one synchronous download (the only blocking call).
		const n = 1024
		a, _ := g.MemAlloc(p, n*4)
		b, _ := g.MemAlloc(p, n*4)
		c, _ := g.MemAlloc(p, n*4)
		av := make([]float32, n)
		bv := make([]float32, n)
		for i := range av {
			av[i] = float32(i)
			bv[i] = float32(i * i)
		}
		start := p.Now()
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
		res := gpu.UnpackF32(out)
		fmt.Printf("vec_add(1024) on the GPU mEnclave: c[7]=%v c[1023]=%v (virtual time %v)\n",
			res[7], res[1023], sim.Duration(p.Now()-start))
		snap := metrics.Default.Snapshot()
		fmt.Printf("stream stats: %d mECalls, %d synchronous waits\n",
			snap.Counters["srpc.calls"], snap.Counters["srpc.sync_waits"])
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
