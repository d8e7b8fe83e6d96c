package spm

import (
	"errors"
	"fmt"
	"testing"

	"cronus/internal/hw"
	"cronus/internal/metrics"
	"cronus/internal/sim"
)

// tlbRig is the common fixture for the TLB-staleness tests: a booted SPM
// with a CPU partition and a device partition, driven from one test proc.
type tlbRig struct {
	k    *sim.Kernel
	s    *SPM
	a, b *Partition
}

func runTLBCase(t *testing.T, body func(t *testing.T, p *sim.Proc, e *tlbRig)) {
	t.Helper()
	k := sim.NewKernel()
	m := hw.NewMachine(hw.Config{NormalMemBytes: 4 << 20, SecureMemBytes: 32 << 20})
	if err := m.Fuses.Burn("platform-rot", []byte("tlb")); err != nil {
		t.Fatal(err)
	}
	m.DT.Add(hw.DTNode{Name: "gpu0", IRQ: 32, Secure: true})
	s, err := Boot(k, m, sim.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	pa, err := s.CreatePartition("pa", "", []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := s.CreatePartition("pb", "gpu0", []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("tlb-test", func(p *sim.Proc) {
		defer k.Stop()
		body(t, p, &tlbRig{k: k, s: s, a: pa, b: pb})
	})
	if err := k.Run(); err != nil {
		t.Fatalf("simulation error: %v", err)
	}
}

func faultKind(t *testing.T, err error, want hw.FaultKind) {
	t.Helper()
	var f *hw.Fault
	if !errors.As(err, &f) {
		t.Fatalf("want *hw.Fault(%v), got %v", want, err)
	}
	if f.Kind != want {
		t.Fatalf("want fault kind %v, got %v (%v)", want, f.Kind, err)
	}
}

// TestTLBInvalidation asserts that every teardown path flushes previously
// cached translations: a warm TLB entry must never outlive the mapping it
// caches. Each case warms a persistent view, mutates isolation state, and
// checks the very next access through the same view.
func TestTLBInvalidation(t *testing.T) {
	buf := []byte{0x5A}
	cases := []struct {
		name string
		run  func(t *testing.T, p *sim.Proc, e *tlbRig)
	}{
		{"freemem-unmaps-cached-page", func(t *testing.T, p *sim.Proc, e *tlbRig) {
			ipa, err := e.s.AllocMem(e.a, 1)
			if err != nil {
				t.Fatal(err)
			}
			v := e.s.NewView(e.a, nil)
			if err := v.Write(p, ipa, buf); err != nil {
				t.Fatalf("warm write: %v", err)
			}
			e.s.FreeMem(e.a, ipa, 1)
			faultKind(t, v.Write(p, ipa, buf), hw.FaultUnmapped)
		}},
		{"unshare-revokes-peer-cache", func(t *testing.T, p *sim.Proc, e *tlbRig) {
			ipa, err := e.s.AllocMem(e.a, 1)
			if err != nil {
				t.Fatal(err)
			}
			peerIPA, gid, err := e.s.Share(e.a, ipa, 1, e.b)
			if err != nil {
				t.Fatal(err)
			}
			pv := e.s.NewView(e.b, nil)
			if err := pv.Write(p, peerIPA, buf); err != nil {
				t.Fatalf("peer warm write: %v", err)
			}
			if err := e.s.Unshare(gid); err != nil {
				t.Fatal(err)
			}
			faultKind(t, pv.Write(p, peerIPA, buf), hw.FaultUnmapped)
		}},
		{"revoke-traps-warm-owner-then-recovers", func(t *testing.T, p *sim.Proc, e *tlbRig) {
			ipa, err := e.s.AllocMem(e.a, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, gid, err := e.s.Share(e.a, ipa, 1, e.b)
			if err != nil {
				t.Fatal(err)
			}
			ov := e.s.NewView(e.a, nil)
			if err := ov.Write(p, ipa, buf); err != nil {
				t.Fatalf("owner warm write: %v", err)
			}
			if err := e.s.RevokeGrant(gid, "pb"); err != nil {
				t.Fatal(err)
			}
			var pf *PeerFault
			if err := ov.Write(p, ipa, buf); !errors.As(err, &pf) {
				t.Fatalf("want PeerFault through warm view, got %v", err)
			}
			// The trap restored exclusive access; the same view (with its
			// flushed cache) must work again.
			if err := ov.Write(p, ipa, buf); err != nil {
				t.Fatalf("post-trap write: %v", err)
			}
		}},
		{"revoke-traps-warm-peer-then-unmaps", func(t *testing.T, p *sim.Proc, e *tlbRig) {
			ipa, err := e.s.AllocMem(e.a, 1)
			if err != nil {
				t.Fatal(err)
			}
			peerIPA, gid, err := e.s.Share(e.a, ipa, 1, e.b)
			if err != nil {
				t.Fatal(err)
			}
			pv := e.s.NewView(e.b, nil)
			if err := pv.Write(p, peerIPA, buf); err != nil {
				t.Fatalf("peer warm write: %v", err)
			}
			if err := e.s.RevokeGrant(gid, "pa"); err != nil {
				t.Fatal(err)
			}
			var pf *PeerFault
			if err := pv.Write(p, peerIPA, buf); !errors.As(err, &pf) {
				t.Fatalf("want PeerFault through warm peer view, got %v", err)
			}
			faultKind(t, pv.Write(p, peerIPA, buf), hw.FaultUnmapped)
		}},
		{"restart-epoch-kills-warm-view", func(t *testing.T, p *sim.Proc, e *tlbRig) {
			ipa, err := e.s.AllocMem(e.a, 1)
			if err != nil {
				t.Fatal(err)
			}
			v := e.s.NewView(e.a, nil)
			if err := v.Write(p, ipa, buf); err != nil {
				t.Fatalf("warm write: %v", err)
			}
			e.s.Fail(e.a, FailPanic)
			e.s.AwaitReady(p, e.a)
			var down *PartitionDownError
			if err := v.Write(p, ipa, buf); !errors.As(err, &down) {
				t.Fatalf("want PartitionDownError through stale view, got %v", err)
			}
			// The new incarnation works through a fresh view.
			ipa2, err := e.s.AllocMem(e.a, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.s.NewView(e.a, nil).Write(p, ipa2, buf); err != nil {
				t.Fatalf("fresh-view write after restart: %v", err)
			}
		}},
		{"stage1-invalidate-then-restore", func(t *testing.T, p *sim.Proc, e *tlbRig) {
			ipa, err := e.s.AllocMem(e.a, 1)
			if err != nil {
				t.Fatal(err)
			}
			s1 := hw.NewAddrSpace("s1:test")
			const vpn = 0x40
			s1.Map(vpn, ipa>>hw.PageShift, hw.PermRW)
			v := e.s.NewView(e.a, s1)
			va := uint64(vpn << hw.PageShift)
			if err := v.Write(p, va, buf); err != nil {
				t.Fatalf("warm write: %v", err)
			}
			s1.Invalidate(vpn)
			faultKind(t, v.Write(p, va, buf), hw.FaultInvalidated)
			// Restore: re-mapping makes the same view work again.
			s1.Map(vpn, ipa>>hw.PageShift, hw.PermRW)
			if err := v.Write(p, va, buf); err != nil {
				t.Fatalf("write after restore: %v", err)
			}
		}},
		{"stage1-unmap-faults-warm-view", func(t *testing.T, p *sim.Proc, e *tlbRig) {
			ipa, err := e.s.AllocMem(e.a, 1)
			if err != nil {
				t.Fatal(err)
			}
			s1 := hw.NewAddrSpace("s1:test")
			const vpn = 0x40
			s1.Map(vpn, ipa>>hw.PageShift, hw.PermRW)
			v := e.s.NewView(e.a, s1)
			va := uint64(vpn << hw.PageShift)
			if err := v.Read(p, va, buf); err != nil {
				t.Fatalf("warm read: %v", err)
			}
			s1.Unmap(vpn)
			faultKind(t, v.Read(p, va, buf), hw.FaultUnmapped)
		}},
		{"cached-read-perm-never-satisfies-write", func(t *testing.T, p *sim.Proc, e *tlbRig) {
			ipa, err := e.s.AllocMem(e.a, 1)
			if err != nil {
				t.Fatal(err)
			}
			s1 := hw.NewAddrSpace("s1:test")
			const vpn = 0x40
			s1.Map(vpn, ipa>>hw.PageShift, hw.PermR)
			v := e.s.NewView(e.a, s1)
			va := uint64(vpn << hw.PageShift)
			if err := v.Read(p, va, buf); err != nil {
				t.Fatalf("warm read: %v", err)
			}
			faultKind(t, v.Write(p, va, buf), hw.FaultPerm)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runTLBCase(t, tc.run)
		})
	}
}

// TestTLBCounters checks the hit/miss/flush accounting: repeated access hits,
// a table mutation flushes, and the next access misses.
func TestTLBCounters(t *testing.T) {
	metrics.Default.Reset()
	metrics.Default.Enable()
	defer metrics.Default.Disable()
	runTLBCase(t, func(t *testing.T, p *sim.Proc, e *tlbRig) {
		ipa, err := e.s.AllocMem(e.a, 1)
		if err != nil {
			t.Fatal(err)
		}
		v := e.s.NewView(e.a, nil)
		buf := []byte{1}
		pre := metrics.Default.Snapshot()
		if err := v.Write(p, ipa, buf); err != nil {
			t.Fatal(err)
		}
		afterMiss := metrics.Default.Snapshot()
		if d := afterMiss.CounterDelta(pre, "spm.tlb.misses"); d != 1 {
			t.Fatalf("first access: want 1 miss, got %d", d)
		}
		for i := 0; i < 5; i++ {
			if err := v.Write(p, ipa, buf); err != nil {
				t.Fatal(err)
			}
		}
		afterHits := metrics.Default.Snapshot()
		if d := afterHits.CounterDelta(afterMiss, "spm.tlb.hits"); d != 5 {
			t.Fatalf("want 5 hits, got %d", d)
		}
		// Any stage-2 mutation flushes on the next access.
		if _, err := e.s.AllocMem(e.a, 1); err != nil {
			t.Fatal(err)
		}
		if err := v.Write(p, ipa, buf); err != nil {
			t.Fatal(err)
		}
		afterFlush := metrics.Default.Snapshot()
		if d := afterFlush.CounterDelta(afterHits, "spm.tlb.flushes"); d != 1 {
			t.Fatalf("want 1 flush after stage-2 mutation, got %d", d)
		}
		if d := afterFlush.CounterDelta(afterHits, "spm.tlb.misses"); d != 1 {
			t.Fatalf("want 1 miss after flush, got %d", d)
		}
	})
}

// TestTLBCounterScript replays one scripted access / remap / revoke sequence
// and pins the hit, miss and flush totals it books. The totals were read off
// the implementation with the map alone in front of the walks; an answer from
// tlbFront must count as the hit or miss the map lookup would have been, so
// they may not move — spm.tlb_hit_ratio is these counters.
func TestTLBCounterScript(t *testing.T) {
	metrics.Default.Reset()
	metrics.Default.Enable()
	defer metrics.Default.Disable()
	runTLBCase(t, func(t *testing.T, p *sim.Proc, e *tlbRig) {
		ipa, err := e.s.AllocMem(e.a, tlbFrontWays+1)
		if err != nil {
			t.Fatal(err)
		}
		pre := metrics.Default.Snapshot()
		ok := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		v := e.s.NewView(e.a, nil)
		word, line, pages := make([]byte, 8), make([]byte, 64), make([]byte, 4*hw.PageSize)
		for i := 0; i < 3; i++ { // miss, then the same page twice
			ok(v.Read(p, ipa, word))
		}
		ok(v.Read(p, ipa+hw.PageSize-32, line)) // straddles into a cold page
		ok(v.Read(p, ipa, pages))               // two warm pages, two cold
		ok(v.Write(p, ipa+8, word))             // the cached RW entry serves writes
		ok(v.Write(p, ipa+8, word))
		for i := 0; i < 4; i++ { // two pages taking turns
			ok(v.Read(p, ipa+uint64(i%2)*hw.PageSize, word))
		}
		for i := 0; i < 6; i++ { // two pages taking turns on one way of tlbFront
			ok(v.Read(p, ipa+uint64(i%2)*tlbFrontWays*hw.PageSize, word))
		}
		// Remap: any stage-2 mutation flushes on the next access.
		if _, err := e.s.AllocMem(e.a, 1); err != nil {
			t.Fatal(err)
		}
		ok(v.Read(p, ipa, word))
		ok(v.Read(p, ipa, word))

		// Revoke: the warm owner traps once, then walks and hits again.
		peerIPA, gid, err := e.s.Share(e.a, ipa, 1, e.b)
		if err != nil {
			t.Fatal(err)
		}
		pv := e.s.NewView(e.b, nil)
		ok(pv.Write(p, peerIPA, word))
		ok(pv.Read(p, peerIPA, word))
		ok(v.Read(p, ipa, word))
		ok(e.s.RevokeGrant(gid, "pb"))
		var pf *PeerFault
		if err := v.Read(p, ipa, word); !errors.As(err, &pf) {
			t.Fatalf("owner after revoke: want PeerFault, got %v", err)
		}
		ok(v.Read(p, ipa, word))
		ok(v.Read(p, ipa, word))

		// A stage-1 view: a cached read-only entry never serves a write,
		// and a stage-1 remap flushes like a stage-2 one.
		s1 := hw.NewAddrSpace("s1:script")
		const vpn = 0x40
		s1.Map(vpn, ipa>>hw.PageShift+1, hw.PermR)
		sv := e.s.NewView(e.a, s1)
		va := uint64(vpn << hw.PageShift)
		ok(sv.Read(p, va, word))
		ok(sv.Read(p, va, word))
		faultKind(t, sv.Write(p, va, word), hw.FaultPerm)
		ok(sv.Read(p, va, word))
		s1.Map(vpn, ipa>>hw.PageShift+2, hw.PermRW)
		ok(sv.Write(p, va, word))
		ok(sv.Write(p, va, word))

		post := metrics.Default.Snapshot()
		got := fmt.Sprintf("hits %d misses %d flushes %d",
			post.CounterDelta(pre, "spm.tlb.hits"),
			post.CounterDelta(pre, "spm.tlb.misses"),
			post.CounterDelta(pre, "spm.tlb.flushes"))
		if want := "hits 23 misses 12 flushes 3"; got != want {
			t.Fatalf("the script books %s; the books say %s", got, want)
		}
	})
}

// TestWatchFireOrderAndRemoval pins the isolation-change registry's rules
// through one scripted change, the same rules hw.PhysMem's write watches
// keep: hooks run in registration order; a callback may cancel its own hook,
// a later one (which is then skipped although the change's snapshot holds it)
// or an earlier one (which already ran); a hook registered by a callback
// waits for the next change. Ten more hooks push the second change past the
// stack snapshot into its spill path.
func TestWatchFireOrderAndRemoval(t *testing.T) {
	_, _, s := testRig(t)
	var log []string
	hook := func(name string, then func()) int {
		return s.OnIsolationChange(func() {
			log = append(log, name)
			if then != nil {
				then()
			}
		})
	}
	var self, later, late int
	first := hook("first", nil)
	self = hook("self", func() { s.OffIsolationChange(self) })
	hook("killer", func() {
		s.OffIsolationChange(later)
		s.OffIsolationChange(first)
		if late == 0 {
			late = hook("late", nil)
		}
	})
	later = hook("later", nil)
	hook("last", nil)

	s.isolationChanged()
	if got, want := fmt.Sprint(log), "[first self killer last]"; got != want {
		t.Fatalf("first change ran %v, want %v", got, want)
	}
	log = nil
	for i := 0; i < 10; i++ {
		hook(fmt.Sprintf("x%d", i), nil)
	}
	s.isolationChanged()
	if got, want := fmt.Sprint(log), "[killer last late x0 x1 x2 x3 x4 x5 x6 x7 x8 x9]"; got != want {
		t.Fatalf("second change ran %v, want %v", got, want)
	}
}
