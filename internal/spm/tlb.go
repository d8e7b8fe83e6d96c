package spm

import (
	"cronus/internal/hw"
)

// This file implements the simulated TLB: a per-View translation cache in
// front of the stage-1/stage-2 walks, plus the notification hooks (physical
// write watches and isolation-change callbacks) that let waiters model
// doorbell interrupts without polling.
//
// The TLB caches vpn → (stage-2 output frame, effective permission) and is
// validated against s1.Gen(), stage2.Gen() and the partition epoch before
// use, exactly like hardware TLB invalidation-on-TLBI: any Map/Unmap/
// Invalidate/Restore/Clear on either table bumps the generation and the next
// access flushes. Physical-layer checks (TZASC) are NOT cached here — every
// access still goes through PhysMem, so world-isolation verdicts cannot go
// stale. Faults therefore surface on exactly the accesses that would have
// faulted with the cache disabled.
//
// One goroutine per kernel: a view, its TLB and the SPM's hook registry are
// reached only from processes of the SPM's sim.Kernel, which runs one of them
// at a time, so nothing in this file takes a lock.

// tlbEntry is one cached translation: the stage-2 output frame for a view
// page, and the intersection of the stage-1 and stage-2 permissions.
type tlbEntry struct {
	pfn  uint64
	perm hw.Perm
}

// tlbFront is the direct-mapped array in front of the map, indexed by the low
// bits of the vpn: a stream's ring header page, its slot pages and a payload's
// run of pages land in different ways, so the accesses that take turns on them
// stay out of the map. tag is vpn+1; zero is an empty way.
const tlbFrontWays = 16

type tlbFrontEntry struct {
	tag uint64
	tlbEntry
}

// tlbValidate flushes the cache if either backing table mutated since the
// last access. Called once per Read/Write: the tables cannot change while
// the page loop runs (translation never yields the simulated CPU).
func (v *View) tlbValidate() {
	s2g := v.part.stage2.Gen()
	var s1g uint64
	if v.s1 != nil {
		s1g = v.s1.Gen()
	}
	if len(v.tlb) > 0 && (v.tlbS1Gen != s1g || v.tlbS2Gen != s2g) {
		for vpn := range v.tlb {
			delete(v.tlb, vpn)
		}
		v.tlbFront = [tlbFrontWays]tlbFrontEntry{}
		mTLBFlushes.Inc()
	}
	v.tlbS1Gen, v.tlbS2Gen = s1g, s2g
}

// tlbLookup is the hit path: zero allocations, no table walk. A way of
// tlbFront answers exactly what the map would have: it holds a copy of a live
// map entry, counts as the hit (or, short of the permission, the miss) the map
// lookup would have been, and is dropped on every flush and on the fill of
// its page.
func (v *View) tlbLookup(vpn uint64, want hw.Perm) (uint64, bool) {
	f := &v.tlbFront[vpn%tlbFrontWays]
	if f.tag != vpn+1 {
		e, ok := v.tlb[vpn]
		if !ok {
			mTLBMisses.Inc()
			return 0, false
		}
		*f = tlbFrontEntry{tag: vpn + 1, tlbEntry: e}
	}
	if f.perm&want != want {
		mTLBMisses.Inc()
		return 0, false
	}
	mTLBHits.Inc()
	return f.pfn, true
}

// isoWatch is one registered isolation-change observer.
type isoWatch struct {
	id int
	fn func()
}

// OnIsolationChange registers fn to run whenever the SPM changes the
// isolation state of any partition — grant teardown (Unshare/RevokeGrant),
// partition failure, recovery completion, and proceed-trap resolution.
// Waiters parked on shared-memory doorbells use this to re-check their
// predicate on failure paths that never write the watched word.
// Callbacks run in registration order; the returned id (never zero) removes
// the hook through OffIsolationChange. Doorbell waiters arm and cancel from
// their own simulated processes, which the SPM's kernel runs one at a time,
// so the list needs no lock.
func (s *SPM) OnIsolationChange(fn func()) (id int) {
	s.isoNext++
	s.isoWatches = append(s.isoWatches, isoWatch{id: s.isoNext, fn: fn})
	return s.isoNext
}

// OffIsolationChange removes the hook OnIsolationChange returned id for; an
// id that is not registered is ignored.
func (s *SPM) OffIsolationChange(id int) {
	if i := s.isoIndex(id); i >= 0 {
		s.isoWatches = append(s.isoWatches[:i], s.isoWatches[i+1:]...)
	}
}

// isoIndex locates a hook by id; -1 when it is gone.
func (s *SPM) isoIndex(id int) int {
	for i := range s.isoWatches {
		if s.isoWatches[i].id == id {
			return i
		}
	}
	return -1
}

// isolationChanged notifies every registered observer in registration order.
// Spurious notifications are harmless — observers re-check state and re-park.
// Callbacks may register and cancel hooks, so the loop walks a snapshot: a
// hook an earlier callback of the same change cancelled is skipped, one
// registered during the change waits for the next. The snapshot lives on the
// stack up to eight hooks — one per parked doorbell waiter — and spills to
// the heap beyond that.
func (s *SPM) isolationChanged() {
	var buf [8]isoWatch
	snap := append(buf[:0], s.isoWatches...)
	for _, w := range snap {
		if s.isoIndex(w.id) >= 0 {
			w.fn()
		}
	}
}

// ResolvePA resolves va to a physical address under the view's current
// mappings without charging virtual time or entering the trap protocol —
// used to locate doorbell words, never to authorize an access.
func (v *View) ResolvePA(va uint64) (hw.PA, bool) {
	if v.part.state != PartReady || v.part.epoch != v.epoch {
		return 0, false
	}
	vpn := va >> hw.PageShift
	ipa := vpn
	if v.s1 != nil {
		e, ok := v.s1.Lookup(vpn)
		if !ok || !e.Valid {
			return 0, false
		}
		ipa = e.Frame
	}
	e, ok := v.part.stage2.Lookup(ipa)
	if !ok || !e.Valid {
		return 0, false
	}
	return hw.PA(e.Frame<<hw.PageShift | va&(hw.PageSize-1)), true
}

// WatchWrite arms a doorbell on the n bytes at va: fn runs after every
// guarded physical write overlapping the range, until Unwatch(id). The range
// must not cross a page boundary (doorbell words are within-page by
// construction). ok is false when va is not currently mapped — callers fall
// back to polling.
func (v *View) WatchWrite(va, n uint64, fn func()) (id int, ok bool) {
	if (va&(hw.PageSize-1))+n > hw.PageSize {
		return 0, false
	}
	pa, ok := v.ResolvePA(va)
	if !ok {
		return 0, false
	}
	return v.spm.M.Mem.WatchWrite(pa, n, fn), true
}

// Unwatch removes a watch armed by WatchWrite.
func (v *View) Unwatch(id int) { v.spm.M.Mem.Unwatch(id) }

// OnIsolationChange forwards to the owning SPM's registry.
func (v *View) OnIsolationChange(fn func()) (id int) {
	return v.spm.OnIsolationChange(fn)
}

// OffIsolationChange forwards to the owning SPM's registry.
func (v *View) OffIsolationChange(id int) { v.spm.OffIsolationChange(id) }
