package attest_test

import (
	"testing"

	"cronus/internal/attest"
	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/sim"
)

// misses is a snapshot of the memo's raw-ed25519 counts.
type misses struct{ derive, sign, verify uint64 }

func snapshot() misses {
	d, s, v := attest.MemoMisses()
	return misses{d, s, v}
}

func (m misses) since(before misses) misses {
	return misses{m.derive - before.derive, m.sign - before.sign, m.verify - before.verify}
}

// bootAndAttest is the set-up a CRONUS application pays before its first
// mECall — platform boot (fuse-derived RoT, AtK and device keys, the AtK and
// device endorsements, device authentication), session, remote attestation
// over nonce, CUDA stream — and then, on the same platform and unless fresh
// is 0, one more attestation over fresh. It returns the memo's misses across
// the boot and across the fresh attestation.
func bootAndAttest(t *testing.T, nonce, fresh uint64) (boot, attestFresh misses) {
	t.Helper()
	start := snapshot()
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "memo")
		if err != nil {
			return err
		}
		if err := s.Attest(p, nonce); err != nil {
			return err
		}
		conn, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add"), RingPages: 65})
		if err != nil {
			return err
		}
		if err := conn.Close(p); err != nil {
			return err
		}
		boot = snapshot().since(start)
		if fresh == 0 {
			return nil
		}
		before := snapshot()
		if err := s.Attest(p, fresh); err != nil {
			return err
		}
		attestFresh = snapshot().since(before)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return boot, attestFresh
}

// lastNonce is the last nonce freshNonce handed out; no other test of the
// process attests above 1<<40, so -count=N runs stay fresh too.
var lastNonce uint64 = 1 << 40

func freshNonce() uint64 {
	lastNonce++
	return lastNonce
}

// TestSecondBootSignsOnlyItsNonce: a platform's chain is fixed when the
// machine is made, so a second boot in one process reaches raw ed25519 for
// none of it — keys, endorsements, device proofs and a report over a nonce
// already answered all come from the memo — and an attestation over a fresh
// nonce costs exactly one raw report signature and one raw report
// verification, every certificate check in it a hit.
func TestSecondBootSignsOnlyItsNonce(t *testing.T) {
	first, _ := bootAndAttest(t, 1, 0)
	t.Logf("first boot: raw (derive, sign, verify) = %v", first)
	second, fresh := bootAndAttest(t, 1, freshNonce())
	if second != (misses{}) {
		t.Errorf("second boot: raw (derive, sign, verify) = %v, want none (first boot: %v)", second, first)
	}
	if want := (misses{0, 1, 1}); fresh != want {
		t.Errorf("attestation over a fresh nonce: raw (derive, sign, verify) = %v, want %v", fresh, want)
	}
}
