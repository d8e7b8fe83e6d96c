package spm

import (
	"encoding/binary"
	"testing"

	"cronus/internal/hw"
	"cronus/internal/metrics"
	"cronus/internal/sim"
)

// TestPeekU64AnswersOnlyWhatReadWould: PeekU64 stands in for an 8-byte Read
// that a waiter's doorbell would otherwise resume it to perform, so whenever
// it answers, the Read must return the same word — and the peek must have
// charged no virtual time and booked no TLB hit, miss or flush. Wherever the
// Read would fault, trap or find the partition down, the peek must decline
// instead of guessing, as it must for a word that crosses a page.
func TestPeekU64AnswersOnlyWhatReadWould(t *testing.T) {
	const word = 0x0123456789abcdef
	// Each case leaves a view and an address behind, with word written
	// there beforehand through the same view.
	cases := []struct {
		name   string
		wantOK bool
		setup  func(t *testing.T, p *sim.Proc, e *tlbRig) (*View, uint64)
	}{
		{"mapped", true, func(t *testing.T, p *sim.Proc, e *tlbRig) (*View, uint64) {
			v, ipa := writtenView(t, p, e, nil, 0)
			return v, ipa + 8
		}},
		{"never-written", true, func(t *testing.T, p *sim.Proc, e *tlbRig) (*View, uint64) {
			v, ipa := writtenView(t, p, e, nil, 0)
			return v, ipa + 64
		}},
		{"through-stage1", true, func(t *testing.T, p *sim.Proc, e *tlbRig) (*View, uint64) {
			return writtenView(t, p, e, hw.NewAddrSpace("s1:peek"), 8)
		}},
		{"crosses-a-page", false, func(t *testing.T, p *sim.Proc, e *tlbRig) (*View, uint64) {
			v, ipa := writtenView(t, p, e, nil, 0)
			return v, ipa + hw.PageSize - 4
		}},
		{"freed", false, func(t *testing.T, p *sim.Proc, e *tlbRig) (*View, uint64) {
			v, ipa := writtenView(t, p, e, nil, 8)
			e.s.FreeMem(e.a, ipa-8, 1)
			return v, ipa
		}},
		{"revoked-owner-would-trap", false, func(t *testing.T, p *sim.Proc, e *tlbRig) (*View, uint64) {
			v, ipa := writtenView(t, p, e, nil, 8)
			_, gid, err := e.s.Share(e.a, ipa-8, 1, e.b)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.s.RevokeGrant(gid, "pb"); err != nil {
				t.Fatal(err)
			}
			return v, ipa
		}},
		{"partition-restarted", false, func(t *testing.T, p *sim.Proc, e *tlbRig) (*View, uint64) {
			v, ipa := writtenView(t, p, e, nil, 8)
			e.s.Fail(e.a, FailPanic)
			e.s.AwaitReady(p, e.a)
			return v, ipa
		}},
		{"stage1-invalidated", false, func(t *testing.T, p *sim.Proc, e *tlbRig) (*View, uint64) {
			s1 := hw.NewAddrSpace("s1:peek")
			v, va := writtenView(t, p, e, s1, 8)
			s1.Invalidate(va >> hw.PageShift)
			return v, va
		}},
		{"stage1-write-only", false, func(t *testing.T, p *sim.Proc, e *tlbRig) (*View, uint64) {
			s1 := hw.NewAddrSpace("s1:peek")
			v, va := writtenView(t, p, e, s1, 8)
			e2, _ := s1.Lookup(va >> hw.PageShift)
			s1.Map(va>>hw.PageShift, e2.Frame, hw.PermW)
			return v, va
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			metrics.Default.Reset()
			metrics.Default.Enable()
			defer metrics.Default.Disable()
			runTLBCase(t, func(t *testing.T, p *sim.Proc, e *tlbRig) {
				v, va := tc.setup(t, p, e)
				pre, at := metrics.Default.Snapshot(), p.Now()
				got, ok := v.PeekU64(va)
				post := metrics.Default.Snapshot()
				if ok != tc.wantOK {
					t.Fatalf("PeekU64 ok = %v, want %v", ok, tc.wantOK)
				}
				if p.Now() != at {
					t.Errorf("the peek charged %v of virtual time", p.Now()-at)
				}
				for _, c := range []string{"spm.tlb.hits", "spm.tlb.misses", "spm.tlb.flushes"} {
					if d := post.CounterDelta(pre, c); d != 0 {
						t.Errorf("the peek booked %d in %s", d, c)
					}
				}
				if !ok {
					return
				}
				var b [8]byte
				if err := v.Read(p, va, b[:]); err != nil {
					t.Fatalf("the peek answered %#x, the read failed: %v", got, err)
				}
				if want := binary.LittleEndian.Uint64(b[:]); got != want {
					t.Errorf("the peek answered %#x, the read %#x", got, want)
				}
				if p.Now() != at {
					t.Errorf("a read the peek answered charged %v of virtual time", p.Now()-at)
				}
			})
		})
	}
}

// writtenView allocates a page of partition a, maps it at vpn 0x40 of s1
// when s1 is given (read-write), writes the test word at offset off through a
// fresh view, and returns the view and the word's address in it.
func writtenView(t *testing.T, p *sim.Proc, e *tlbRig, s1 *hw.AddrSpace, off uint64) (*View, uint64) {
	t.Helper()
	ipa, err := e.s.AllocMem(e.a, 1)
	if err != nil {
		t.Fatal(err)
	}
	va := ipa
	if s1 != nil {
		const vpn = 0x40
		s1.Map(vpn, ipa>>hw.PageShift, hw.PermRW)
		va = vpn << hw.PageShift
	}
	v := e.s.NewView(e.a, s1)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], 0x0123456789abcdef)
	if err := v.Write(p, va+off, b[:]); err != nil {
		t.Fatal(err)
	}
	return v, va + off
}
