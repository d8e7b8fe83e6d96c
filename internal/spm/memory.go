package spm

import (
	"fmt"
	"sort"

	"cronus/internal/hw"
	"cronus/internal/sim"
	"cronus/internal/trace"
)

// grant records one inter-partition memory share (Figure 6). The §IV-D
// restriction that a physical page may be shared at most once keeps this a
// strict pairwise relationship, which is what makes trap handling complete.
type grant struct {
	id       int
	owner    *Partition
	peer     *Partition
	ownerIPA uint64 // first IPA page number in the owner
	peerIPA  uint64 // first IPA page number in the peer
	npages   int
	pfns     []uint64
	dead     bool
	failedBy string // name of the failed party once dead
	// Once dead, each side whose stage-2 entries were invalidated awaits
	// its own trap: RevokeGrant invalidates both, Fail only the
	// survivor's. Whichever traps first, the other still recovers.
	ownerTraps, peerTraps bool
	// IPA page numbers only mean something within one partition
	// incarnation: every grant records the epochs it was created in, and
	// no path may touch a partition's stage-2 through a grant from a
	// different epoch (a restarted partition reuses the same IPA range
	// for unrelated allocations).
	ownerEpoch uint64
	peerEpoch  uint64
}

// coversOwner reports whether vpn falls in the grant's owner-side range AND
// the owner is still the same incarnation the grant was created in.
func (g *grant) coversOwner(vpn uint64) bool {
	return g.owner.epoch == g.ownerEpoch &&
		vpn >= g.ownerIPA && vpn < g.ownerIPA+uint64(g.npages)
}

// coversPeer is the peer-side analogue.
func (g *grant) coversPeer(vpn uint64) bool {
	return g.peer.epoch == g.peerEpoch &&
		vpn >= g.peerIPA && vpn < g.peerIPA+uint64(g.npages)
}

// awaitsTrap reports whether a side of a dead grant, in the incarnation the
// grant was made in, still has invalidated entries its trap must recover.
func (g *grant) awaitsTrap() bool {
	return g.ownerTraps && g.owner.epoch == g.ownerEpoch ||
		g.peerTraps && g.peer.epoch == g.peerEpoch
}

// releasePFNs makes the grant's frames shareable again, unless a newer grant
// already shares one.
func (s *SPM) releasePFNs(g *grant) {
	for _, pfn := range g.pfns {
		if s.sharedPFN[pfn] == g.id {
			delete(s.sharedPFN, pfn)
		}
	}
}

// AllocMem allocates npages of secure memory to partition p and maps them
// read-write into its stage-2 table. It returns the base IPA.
func (s *SPM) AllocMem(p *Partition, npages int) (uint64, error) {
	if p.state != PartReady {
		return 0, &NotReadyError{Msg: fmt.Sprintf("spm: partition %q not ready (r_f set)", p.Name)}
	}
	base := p.ipaNext
	for i := 0; i < npages; i++ {
		pa, err := s.M.Mem.AllocPages("secure", 1)
		if err != nil {
			return 0, err
		}
		vpn := p.ipaNext
		p.ipaNext++
		p.stage2.Map(vpn, pa.PFN(), hw.PermRW)
		p.ownPages[vpn] = ownedPage{pfn: pa.PFN(), region: "secure"}
	}
	return base << hw.PageShift, nil
}

// FreeMem unmaps and scrubs pages previously allocated with AllocMem, once
// no live grant shares them (Unshare first). Pages a dead grant shares end
// the owner's wait for its trap, since there is no access left to recover:
// the grant then waits only for the peer's. It changes no other partition's
// view, so it raises no isolation-change notification.
func (s *SPM) FreeMem(p *Partition, ipa uint64, npages int) {
	vpn := ipa >> hw.PageShift
	for i := 0; i < npages; i++ {
		op, ok := p.ownPages[vpn+uint64(i)]
		if !ok {
			continue
		}
		if g := s.grants[s.sharedPFN[op.pfn]]; g != nil && g.dead && g.owner == p && g.coversOwner(vpn+uint64(i)) {
			g.ownerTraps = false
			if !g.awaitsTrap() {
				delete(s.grants, g.id)
			}
		}
		delete(p.ownPages, vpn+uint64(i))
		delete(s.sharedPFN, op.pfn)
		p.stage2.Unmap(vpn + uint64(i))
		// ownPages records the region each frame came from, so this
		// cannot fail unless the SPM's own bookkeeping is corrupt.
		_ = s.M.Mem.FreePage(op.region, hw.PA(op.pfn<<hw.PageShift))
	}
}

// Share maps npages of owner's memory (starting at ownerIPA) into peer's
// stage-2 table and returns the peer-side IPA and the grant id. It enforces
// the share-once rule and refuses while either side has r_f set.
func (s *SPM) Share(owner *Partition, ownerIPA uint64, npages int, peer *Partition) (uint64, int, error) {
	if owner.state != PartReady {
		return 0, 0, &NotReadyError{Msg: fmt.Sprintf("spm: share refused, owner %q not ready", owner.Name)}
	}
	if peer.state != PartReady {
		return 0, 0, &NotReadyError{Msg: fmt.Sprintf("spm: share refused, peer %q not ready (r_f set)", peer.Name)}
	}
	if owner == peer {
		return 0, 0, fmt.Errorf("spm: cannot share a page with the owning partition")
	}
	vpn := ownerIPA >> hw.PageShift
	pfns := make([]uint64, npages)
	for i := 0; i < npages; i++ {
		op, ok := owner.ownPages[vpn+uint64(i)]
		if !ok {
			return 0, 0, fmt.Errorf("spm: partition %q does not own IPA page %#x", owner.Name, (vpn+uint64(i))<<hw.PageShift)
		}
		if gid, shared := s.sharedPFN[op.pfn]; shared {
			return 0, 0, fmt.Errorf("spm: page already shared (grant %d) — pages may be shared only once", gid)
		}
		pfns[i] = op.pfn
	}
	peerBase := peer.ipaNext
	peer.ipaNext += uint64(npages)
	for i := 0; i < npages; i++ {
		peer.stage2.Map(peerBase+uint64(i), pfns[i], hw.PermRW)
	}
	s.nextG++
	g := &grant{
		id:         s.nextG,
		owner:      owner,
		peer:       peer,
		ownerIPA:   vpn,
		peerIPA:    peerBase,
		npages:     npages,
		pfns:       pfns,
		ownerEpoch: owner.epoch,
		peerEpoch:  peer.epoch,
	}
	s.grants[g.id] = g
	for _, pfn := range pfns {
		s.sharedPFN[pfn] = g.id
	}
	mGrantsShared.Inc()
	if tc := trace.Of(s.K); tc != nil {
		tc.InstantAt(s.K.Now(), "spm", owner.Name, "grant-shared to "+peer.Name, nil)
	}
	return peerBase << hw.PageShift, g.id, nil
}

// Unshare dissolves a grant cleanly (stream closed): the peer's mappings are
// removed and the pages become shareable again. Stage-2 tables are only
// touched for partition incarnations the grant was created in; if the grant
// died from a peer failure, the owner's invalidated entries are restored
// (the same recovery the trap path performs).
func (s *SPM) Unshare(gid int) error {
	g, ok := s.grants[gid]
	if !ok {
		return fmt.Errorf("spm: no grant %d", gid)
	}
	if g.peer.epoch == g.peerEpoch {
		for i := 0; i < g.npages; i++ {
			g.peer.stage2.Unmap(g.peerIPA + uint64(i))
		}
	}
	if g.ownerTraps && g.owner.epoch == g.ownerEpoch {
		for i := 0; i < g.npages; i++ {
			g.owner.stage2.Map(g.ownerIPA+uint64(i), g.pfns[i], hw.PermRW)
		}
	}
	s.releasePFNs(g)
	delete(s.grants, gid)
	mGrantsUnshared.Inc()
	s.isolationChanged()
	return nil
}

// RevokeGrant is the mEnclave-failure path (§IV-D "Handling mEnclave
// failures"): both sides' stage-2 entries for the share are invalidated so
// the surviving communicating mEnclave traps and is notified.
func (s *SPM) RevokeGrant(gid int, failedBy string) error {
	g, ok := s.grants[gid]
	if !ok {
		return fmt.Errorf("spm: no grant %d", gid)
	}
	if g.dead {
		return nil
	}
	g.dead = true
	g.failedBy = failedBy
	g.ownerTraps, g.peerTraps = true, true
	for i := 0; i < g.npages; i++ {
		if g.owner.epoch == g.ownerEpoch {
			g.owner.stage2.Invalidate(g.ownerIPA + uint64(i))
		}
		if g.peer.epoch == g.peerEpoch {
			g.peer.stage2.Invalidate(g.peerIPA + uint64(i))
		}
	}
	s.invalidateSMMU(g)
	mGrantsRevoked.Inc()
	if tc := trace.Of(s.K); tc != nil {
		tc.InstantAt(s.K.Now(), "spm", g.owner.Name, "grant-revoked ("+failedBy+" failed)", nil)
	}
	s.isolationChanged()
	return nil
}

// GrantsTo counts the share grants the SPM holds that name partition p as
// owner or peer: current ones, made in p's present incarnation, and stale
// ones, naming an incarnation p has since left. A stale grant is recovery's
// leftover, kept until the surviving side tears its stream down (Unshare);
// once it has, there should be none.
func (s *SPM) GrantsTo(p *Partition) (current, stale int) {
	for _, g := range s.grants {
		switch {
		case g.owner == p && g.ownerEpoch == p.epoch, g.peer == p && g.peerEpoch == p.epoch:
			current++
		case g.owner == p, g.peer == p:
			stale++
		}
	}
	return current, stale
}

// invalidateSMMU drops any SMMU mappings of the grant's frames for both
// partitions' devices (spt²(P_i, P_a) in the paper's notation).
func (s *SPM) invalidateSMMU(g *grant) {
	inFrame := func(_, pfn uint64) bool {
		for _, f := range g.pfns {
			if f == pfn {
				return true
			}
		}
		return false
	}
	// Only a device whose partition is still the grant's incarnation can
	// hold SMMU entries from this grant; a recovered partition's stream
	// was cleared and its frames may have been recycled.
	if g.owner.Device != "" && g.owner.epoch == g.ownerEpoch {
		s.M.SMMU.Stream(g.owner.Device).InvalidateWhere(inFrame)
	}
	if g.peer.Device != "" && g.peer.epoch == g.peerEpoch {
		s.M.SMMU.Stream(g.peer.Device).InvalidateWhere(inFrame)
	}
}

// sortedGrantIDs returns grant ids in ascending order so grant scans are
// deterministic (map iteration order would make same-timestamp behaviour
// schedule-dependent).
func (s *SPM) sortedGrantIDs() []int {
	ids := make([]int, 0, len(s.grants))
	for id := range s.grants {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// PeerFault is the fault signal delivered to an mEnclave whose shared-memory
// access trapped because the communicating partition or mEnclave failed
// (§IV-D step ③). sRPC turns it into a clean stream teardown; applications
// using raw shared memory see it as their exception-handler signal.
type PeerFault struct {
	Failed string // name of the failed partition or enclave
	IPA    uint64 // faulting intermediate physical address
}

// Error implements error.
func (e *PeerFault) Error() string {
	return fmt.Sprintf("spm: peer %q failed; shared memory at %#x revoked", e.Failed, e.IPA)
}

// PartitionDownError reports that the caller's own partition is not ready.
type PartitionDownError struct{ Name string }

// Error implements error.
func (e *PartitionDownError) Error() string {
	return fmt.Sprintf("spm: partition %q is down or restarted", e.Name)
}

// NotReadyError is the refusal of AllocMem, Share, LocalReportFor or the
// mOS's enclave creation to act on a partition whose r_f is set — restarting,
// quarantined or revoked. The operation may succeed once AwaitReady returns.
type NotReadyError struct{ Msg string }

// Error implements error.
func (e *NotReadyError) Error() string { return e.Msg }

// View is a memory view used by code executing inside a partition: an
// optional stage-1 table (the mEnclave's VA space) over the partition's
// stage-2 table. A per-view simulated TLB (tlb.go) caches completed walks;
// any table mutation bumps the backing AddrSpace generation and flushes it,
// so stage-2 invalidation still genuinely traps the access — the mechanism
// the proceed-trap protocol builds on.
type View struct {
	spm   *SPM
	part  *Partition
	s1    *hw.AddrSpace // nil: the view addresses IPA directly (mOS view)
	epoch uint64

	// Simulated TLB: vpn → cached walk result, valid only while the
	// generations below match the backing tables (see tlb.go). tlbFront
	// holds copies of tlb entries, tried before the map.
	tlb      map[uint64]tlbEntry
	tlbS1Gen uint64
	tlbS2Gen uint64
	tlbFront [tlbFrontWays]tlbFrontEntry
}

// NewView creates a view for the partition's current incarnation.
func (s *SPM) NewView(p *Partition, s1 *hw.AddrSpace) *View {
	return &View{spm: s, part: p, s1: s1, epoch: p.epoch, tlb: make(map[uint64]tlbEntry)}
}

// Read copies len(buf) bytes from va. proc (optional) is charged trap costs.
func (v *View) Read(proc *sim.Proc, va uint64, buf []byte) error {
	return v.access(proc, va, buf, false)
}

// Write copies data to va.
func (v *View) Write(proc *sim.Proc, va uint64, data []byte) error {
	return v.access(proc, va, data, true)
}

func (v *View) access(proc *sim.Proc, va uint64, buf []byte, write bool) error {
	if v.part.state != PartReady || v.part.epoch != v.epoch {
		return &PartitionDownError{Name: v.part.Name}
	}
	want := hw.PermR
	if write {
		want = hw.PermW
	}
	v.tlbValidate()
	off := 0
	for off < len(buf) {
		cur := va + uint64(off)
		vpn := cur >> hw.PageShift
		pfn, hit := v.tlbLookup(vpn, want)
		if !hit {
			var err error
			pfn, err = v.walkSlow(proc, vpn, want)
			if err != nil {
				return err
			}
		}
		pa := hw.PA(pfn<<hw.PageShift | cur&(hw.PageSize-1))
		n := hw.PageSize - int(cur&(hw.PageSize-1))
		if n > len(buf)-off {
			n = len(buf) - off
		}
		var err error
		if write {
			err = v.spm.M.Mem.Write(hw.SecureWorld, pa, buf[off:off+n])
		} else {
			err = v.spm.M.Mem.Read(hw.SecureWorld, pa, buf[off:off+n])
		}
		if err != nil {
			return err
		}
		off += n
	}
	return nil
}

// walkSlow is the TLB miss path: the full two-stage walk with the original
// fault semantics (stage-1 faults surface raw; an invalidated stage-2 entry
// enters the proceed-trap protocol), filling the TLB on success with the
// intersection of the stage-1 and stage-2 permissions so a cached read
// mapping can never satisfy a later write.
func (v *View) walkSlow(proc *sim.Proc, vpn uint64, want hw.Perm) (uint64, error) {
	ipaPage := vpn
	perm := hw.PermRW | hw.PermX
	if v.s1 != nil {
		p, f := v.s1.Translate(vpn, want)
		if f != nil {
			return 0, f
		}
		ipaPage = p
		e1, _ := v.s1.Lookup(vpn)
		perm = e1.Perm
	}
	pfn, f := v.part.stage2.Translate(ipaPage, want)
	if f != nil {
		if f.Kind == hw.FaultInvalidated {
			return 0, v.spm.handleTrap(proc, v.part, ipaPage, f)
		}
		return 0, f
	}
	e2, _ := v.part.stage2.Lookup(ipaPage)
	v.tlb[vpn] = tlbEntry{pfn: pfn, perm: perm & e2.Perm}
	v.tlbFront[vpn%tlbFrontWays] = tlbFrontEntry{}
	return pfn, nil
}

// handleTrap implements §IV-D step ③: a partition touched shared memory
// whose mapping the SPM invalidated during a failure. The SPM restores the
// partition's access to pages it owns, reclaims mappings of pages the failed
// party owned, and delivers the fault signal.
func (s *SPM) handleTrap(proc *sim.Proc, q *Partition, ipaPage uint64, raw *hw.Fault) error {
	mTrapsHandled.Inc()
	if proc != nil {
		trace.Of(s.K).Instant(proc, "spm", q.Name, "proceed-trap", nil)
		proc.Sleep(s.Costs.PageFaultTrap)
	}
	for _, gid := range s.sortedGrantIDs() {
		g := s.grants[gid]
		if !g.dead {
			continue
		}
		switch {
		case g.owner == q && g.ownerTraps && g.coversOwner(ipaPage):
			// Pages owned by the surviving partition: recover its
			// exclusive access (§IV-D: "CRONUS recovers P_i's
			// accesses to the page by changing pt²"), and let it
			// share them again.
			for i := 0; i < g.npages; i++ {
				q.stage2.Map(g.ownerIPA+uint64(i), g.pfns[i], hw.PermRW)
			}
			g.ownerTraps = false
			s.releasePFNs(g)
		case g.peer == q && g.peerTraps && g.coversPeer(ipaPage):
			// Pages owned by the failed party: reclaim the peer-side
			// mappings. A failed owner's frames are scrubbed by its
			// recovery; a surviving owner's wait for its own trap.
			for i := 0; i < g.npages; i++ {
				q.stage2.Unmap(g.peerIPA + uint64(i))
			}
			g.peerTraps = false
		default:
			continue
		}
		if !g.awaitsTrap() {
			s.releasePFNs(g)
			delete(s.grants, g.id)
		}
		s.isolationChanged()
		return &PeerFault{Failed: g.failedBy, IPA: ipaPage << hw.PageShift}
	}
	return raw
}
