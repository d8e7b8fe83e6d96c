package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"cronus/internal/core"
	"cronus/internal/enclave"
	"cronus/internal/gpu"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

// TestSessionEDLIsBuildEDLs holds the session's constant EDL text to what
// enclave.BuildEDL writes for the same table: the session enclave's
// measurement covers these bytes.
func TestSessionEDLIsBuildEDLs(t *testing.T) {
	want := enclave.BuildEDL(
		enclave.MECallSpec{Name: "ping", Async: false},
		enclave.MECallSpec{Name: "seal_result", Async: false},
	)
	if got := core.SessionEDL(); !bytes.Equal(got, want) {
		t.Errorf("SessionEDL = %q, BuildEDL writes %q", got, want)
	}
}

// TestOwnerKeyAndFreshSecrets pins the creation protocol (§IV-A): every
// create a session makes — its own CPU mEnclave's and each accelerator
// mEnclave's — carries the one owner key the session holds; the mOS side
// still agrees a different secret_dhke with each enclave; and once the
// partition restarts, reopening an enclave of the same name agrees a new one.
func TestOwnerKeyAndFreshSecrets(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		var pubs [][]byte
		pl.D.TamperCreate = func(pub []byte) []byte {
			pubs = append(pubs, append([]byte(nil), pub...))
			return pub
		}
		defer func() { pl.D.TamperCreate = nil }()
		s, err := pl.NewSession(p, "proto")
		if err != nil {
			return err
		}
		cubin := gpu.BuildCubin("vec_add")
		c0, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: cubin, Name: "proto/cuda0"})
		if err != nil {
			return err
		}
		c1, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: cubin, Name: "proto/cuda1"})
		if err != nil {
			return err
		}
		n, err := s.OpenNPU(p, core.NPUOptions{Name: "proto/npu"})
		if err != nil {
			return err
		}
		secretOf := func(eid uint32) []byte { return pl.D.Server(eid).Enclave().Secret() }

		if len(pubs) != 4 {
			t.Fatalf("%d creates observed, want 4 (session, two CUDA, one NPU)", len(pubs))
		}
		for i, pub := range pubs[1:] {
			if !bytes.Equal(pub, pubs[0]) {
				t.Errorf("create %d carried DH key %x, the session's own create %x: the owner key is per connection", i+1, pub, pubs[0])
			}
		}
		secrets := map[string][]byte{"cuda0": secretOf(c0.EID), "cuda1": secretOf(c1.EID), "npu": secretOf(n.EID)}
		for a, sa := range secrets {
			for b, sb := range secrets {
				if a < b && bytes.Equal(sa, sb) {
					t.Errorf("enclaves %s and %s share secret_dhke %x", a, b, sa)
				}
			}
		}

		part := pl.GPUs[0].Part
		pl.SPM.Fail(part, spm.FailPanic)
		c0.Abandon()
		c1.Abandon()
		pl.SPM.AwaitReady(p, part)
		again, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: cubin, Name: "proto/cuda0"})
		if err != nil {
			return err
		}
		if !bytes.Equal(pubs[len(pubs)-1], pubs[0]) {
			t.Error("the reopen after the restart carried another owner key")
		}
		fresh := secretOf(again.EID)
		for name, old := range secrets {
			if bytes.Equal(fresh, old) {
				t.Errorf("the reopened enclave agreed the secret_dhke %s had before the restart", name)
			}
		}
		if err := again.Close(p); err != nil {
			return err
		}
		return n.Close(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// handshakeOnce opens session i on pl and one CUDA mEnclave from it, then
// closes the stream: the unit TestHandshakeAllocationBudget and
// BenchmarkHandshake count.
func handshakeOnce(pl *core.Platform, p *sim.Proc, i int, cubin []byte) error {
	s, err := pl.NewSession(p, fmt.Sprintf("hs%d", i))
	if err != nil {
		return err
	}
	c, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: cubin})
	if err != nil {
		return err
	}
	return c.Close(p)
}

// TestHandshakeAllocationBudget bounds the heap allocations of one NewSession
// plus one OpenCUDA on a booted platform, both sides of the handshake
// counted: ~414 when every connection derived its own owner key and the
// EDLs were formatted and parsed per create, ~286 since. The budget sits
// between the two.
func TestHandshakeAllocationBudget(t *testing.T) {
	const budget = 350
	var allocs float64
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		cubin := gpu.BuildCubin("vec_add")
		i := 0
		var runErr error
		allocs = testing.AllocsPerRun(20, func() {
			i++
			if err := handshakeOnce(pl, p, i, cubin); err != nil && runErr == nil {
				runErr = err
			}
		})
		return runErr
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("NewSession + OpenCUDA: %.0f allocations (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("NewSession + OpenCUDA allocates %.0f times, budget %d", allocs, budget)
	}
}

// BenchmarkHandshake is one session and one OpenCUDA per op on a booted
// platform: `go test -run '^$' -bench Handshake -cpuprofile cpu.out
// ./internal/core` profiles mEnclave creation and stream establishment.
func BenchmarkHandshake(b *testing.B) {
	b.ReportAllocs()
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		cubin := gpu.BuildCubin("vec_add")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := handshakeOnce(pl, p, i, cubin); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
