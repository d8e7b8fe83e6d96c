package spm

import (
	"errors"
	"math/rand"
	"testing"

	"cronus/internal/hw"
	"cronus/internal/sim"
)

// isolationReach counts what one schedule did, so a test can tell a schedule
// that reached the teardown paths from one that only allocated.
type isolationReach struct {
	shares, fails, traps, staleAccesses int
	revokes, peerTraps                  int
}

// runIsolationSchedule drives the SPM's grant/failure state machine with a
// schedule of allocations, shares, unshares, grant revocations (an
// mEnclave's failure), partition failures, recoveries and memory accesses
// read from b, and checks the §IV-C/§IV-D invariants after every step:
//
//	I1  a physical frame is referenced by at most one live grant
//	I2  every live grant's owner and peer hold valid stage-2 entries for
//	    its frames, and the peer loses its entry when the grant is
//	    dissolved or the owner fails
//	I3  a survivor's first access to a page shared with a failed peer
//	    or under a revoked grant traps, and after the trap the owner
//	    regains exclusive, working access to its own pages and can share
//	    them again — whether or not the peer trapped first
//	I4  accesses through healthy, unshared allocations always succeed
//	I5  no operation ever panics or deadlocks the simulation
//
// and, at every recover-wait, that each view of a dead incarnation is
// refused. Every choice is one byte of b taken modulo the number of options:
// the operation, then the partition or allocation it acts on, then a share's
// peer. The schedule ends after rounds rounds or when b runs out.
func runIsolationSchedule(t testing.TB, b []byte, rounds int) isolationReach {
	pick := func(n int) int {
		if len(b) == 0 {
			return 0
		}
		c := int(b[0]) % n
		b = b[1:]
		return c
	}
	var reach isolationReach
	k := sim.NewKernel()
	defer k.Shutdown()
	m := hw.NewMachine(hw.Config{NormalMemBytes: 4 << 20, SecureMemBytes: 32 << 20})
	if err := m.Fuses.Burn("platform-rot", []byte("fuzz")); err != nil {
		t.Fatal(err)
	}
	m.DT.Add(hw.DTNode{Name: "gpu0", IRQ: 32, Secure: true})
	m.DT.Add(hw.DTNode{Name: "npu0", IRQ: 33, Secure: true})
	s, err := Boot(k, m, sim.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*Partition, 3)
	parts[0], _ = s.CreatePartition("p0", "", []byte("a"))
	parts[1], _ = s.CreatePartition("p1", "gpu0", []byte("b"))
	parts[2], _ = s.CreatePartition("p2", "npu0", []byte("c"))

	type alloc struct {
		part  *Partition
		epoch uint64
		ipa   uint64
		gid   int // 0: unshared
		peer  *Partition
		// peerEpoch is the peer's incarnation when the page was shared,
		// and peerView the peer's persistent view of it at peerIPA.
		peerEpoch uint64
		peerView  *View
		peerIPA   uint64
		// view is persistent across rounds, so its simulated TLB holds
		// warm translations when shares are torn down, partitions fail,
		// or pages are freed — the cache-staleness oracle.
		view *View
		// revoked: the grant was revoked, so the owner's next access traps.
		revoked bool
	}
	var allocs, stale []*alloc

	k.Spawn("fuzz", func(p *sim.Proc) {
		defer k.Stop()
		for round := 0; round < rounds && len(b) > 0; round++ {
			switch pick(11) {
			case 0, 1, 2: // allocate a page on a ready partition
				part := parts[pick(len(parts))]
				if part.State() != PartReady {
					continue
				}
				ipa, err := s.AllocMem(part, 1)
				if err != nil {
					t.Fatalf("round %d: alloc: %v", round, err)
				}
				a := &alloc{part: part, epoch: part.Epoch(), ipa: ipa, view: s.NewView(part, nil)}
				// Warm the view's TLB immediately so later teardown paths
				// race against a populated cache.
				if err := a.view.Write(p, a.ipa, []byte{0xAA}); err != nil {
					t.Fatalf("round %d: warming access failed: %v", round, err)
				}
				allocs = append(allocs, a)
			case 3, 4: // share an unshared allocation with another partition
				if len(allocs) == 0 {
					continue
				}
				a := allocs[pick(len(allocs))]
				if a.gid != 0 || a.part.State() != PartReady || a.epoch != a.part.Epoch() {
					continue
				}
				peer := parts[pick(len(parts))]
				if peer == a.part || peer.State() != PartReady {
					continue
				}
				peerIPA, gid, err := s.Share(a.part, a.ipa, 1, peer)
				if err != nil {
					t.Fatalf("round %d: share: %v", round, err)
				}
				a.gid, a.peer, a.peerEpoch = gid, peer, peer.Epoch()
				a.peerView, a.peerIPA = s.NewView(peer, nil), peerIPA
				reach.shares++
				// I2: the peer reaches the page (and warms its TLB).
				if err := a.peerView.Write(p, peerIPA, []byte{0xBB}); err != nil {
					t.Fatalf("round %d: peer's access to a live share failed: %v", round, err)
				}
				// I1: sharing the same page again must fail.
				if _, _, err := s.Share(a.part, a.ipa, 1, peer); err == nil {
					t.Fatalf("round %d: double share accepted", round)
				}
			case 5: // unshare
				if len(allocs) == 0 {
					continue
				}
				a := allocs[pick(len(allocs))]
				if a.gid == 0 || a.epoch != a.part.Epoch() || a.part.State() != PartReady {
					continue
				}
				_ = s.Unshare(a.gid)
				// No translation outlives the grant, warm TLB or not.
				if err := a.peerView.Write(p, a.peerIPA, []byte{byte(round)}); err == nil {
					t.Fatalf("round %d: peer still reaches a page unshared from it", round)
				}
				a.gid, a.peer, a.revoked = 0, nil, false
			case 6: // fail a partition
				failed := parts[pick(len(parts))]
				if s.Fail(failed, FailPanic) == nil {
					continue
				}
				reach.fails++
				// Step ① is synchronous: a surviving peer of the failed
				// owner loses the page before anything else runs.
				for _, a := range allocs {
					if a.gid != 0 && a.part == failed && a.peer.State() == PartReady && a.peer.Epoch() == a.peerEpoch {
						if e, ok := a.peer.stage2.Lookup(a.peerIPA >> hw.PageShift); ok && e.Valid {
							t.Fatalf("round %d: %s still maps the page of failed %s", round, a.peer.Name, failed.Name)
						}
					}
				}
			case 7: // wait for all recoveries
				for _, part := range parts {
					s.AwaitReady(p, part)
				}
				// Move allocations of dead incarnations to stale, then
				// access through every stale view: each must be refused,
				// whatever its TLB cached before the restart and whether
				// or not a new incarnation has reused its IPA since.
				live := allocs[:0]
				for _, a := range allocs {
					if a.epoch == a.part.Epoch() {
						live = append(live, a)
					} else {
						stale = append(stale, a)
					}
				}
				allocs = live
				for _, a := range stale {
					reach.staleAccesses++
					if err := a.view.Write(p, a.ipa, []byte{byte(round)}); err == nil {
						t.Fatalf("round %d: stale-epoch view access succeeded", round)
					}
				}
			case 10: // revoke a live grant: an mEnclave on its owner failed
				if len(allocs) == 0 {
					continue
				}
				a := allocs[pick(len(allocs))]
				if a.gid == 0 || a.epoch != a.part.Epoch() || a.part.State() != PartReady || s.grants[a.gid].dead {
					continue
				}
				if err := s.RevokeGrant(a.gid, "enclave"); err != nil {
					t.Fatalf("round %d: revoke: %v", round, err)
				}
				a.revoked = true
				reach.revokes++
				// Either side may trap first; half the time it is the
				// peer, which loses the page for good (I3).
				if pick(2) == 0 && a.peer.State() == PartReady && a.peer.Epoch() == a.peerEpoch {
					var pf *PeerFault
					if err := a.peerView.Write(p, a.peerIPA, []byte{byte(round)}); !errors.As(err, &pf) {
						t.Fatalf("round %d: peer's first access under a revoked grant: %v, want a PeerFault", round, err)
					}
					if err := a.peerView.Write(p, a.peerIPA, []byte{byte(round)}); err == nil {
						t.Fatalf("round %d: peer still reaches a page after its trap", round)
					}
					reach.peerTraps++
				}
			default: // access an allocation
				if len(allocs) == 0 {
					continue
				}
				a := allocs[pick(len(allocs))]
				if a.epoch != a.part.Epoch() || a.part.State() != PartReady {
					// A view from a dead incarnation must never succeed,
					// no matter what its TLB cached before the restart.
					if a.epoch != a.part.Epoch() {
						reach.staleAccesses++
						if err := a.view.Write(p, a.ipa, []byte{byte(round)}); err == nil {
							t.Fatalf("round %d: stale-epoch view access succeeded", round)
						}
					}
					continue
				}
				v := a.view
				peerFailed := a.gid != 0 && (a.revoked || a.peer.Epoch() != a.peerEpoch || a.peer.State() != PartReady)
				err := v.Write(p, a.ipa, []byte{byte(round)})
				if err == nil && peerFailed {
					// I3: the survivor of a failed peer traps on its
					// first access to the page they shared.
					t.Fatalf("round %d: access to a page shared with failed %s did not trap", round, a.peer.Name)
				}
				if err != nil {
					// Only legal reason: a peer involved in the grant
					// failed; the trap must have cleared it so the
					// NEXT access works (I3).
					if a.gid == 0 {
						t.Fatalf("round %d: unshared access failed: %v", round, err)
					}
					reach.traps++
					a.gid, a.peer, a.revoked = 0, nil, false
					if err2 := v.Write(p, a.ipa, []byte{byte(round)}); err2 != nil {
						t.Fatalf("round %d: access after trap still fails: %v", round, err2)
					}
				}
			}
			// I2: both sides of a live grant map its frames.
			for gid, g := range s.grants {
				if g.dead {
					continue
				}
				for i, pfn := range g.pfns {
					for _, side := range []struct {
						part     *Partition
						ipa, gen uint64
					}{{g.owner, g.ownerIPA + uint64(i), g.ownerEpoch}, {g.peer, g.peerIPA + uint64(i), g.peerEpoch}} {
						e, ok := side.part.stage2.Lookup(side.ipa)
						if side.part.epoch != side.gen || !ok || !e.Valid || e.Frame != pfn {
							t.Fatalf("round %d: live grant %d: %s does not map frame %d", round, gid, side.part.Name, pfn)
						}
					}
				}
			}
			// Global invariant I1: no frame appears in two LIVE grants.
			// (A dead grant may hold a stale frame list until its
			// survivor traps; it never acts on frames, so overlap with
			// a recycled frame is benign.)
			seen := make(map[uint64]int)
			for gid, g := range s.grants {
				if g.dead {
					continue
				}
				for _, pfn := range g.pfns {
					if prev, dup := seen[pfn]; dup {
						t.Fatalf("round %d: frame %d in live grants %d and %d", round, pfn, prev, gid)
					}
					seen[pfn] = gid
				}
			}
			for pfn, gid := range s.sharedPFN {
				if _, ok := s.grants[gid]; !ok {
					t.Fatalf("round %d: sharedPFN[%d] -> dangling grant %d", round, pfn, gid)
				}
			}
			// Epoch hygiene: no live, unshared allocation's frame may be
			// registered in sharedPFN (the stale-grant corruption class).
			for _, a := range allocs {
				if a.epoch != a.part.Epoch() || a.gid != 0 || a.part.State() != PartReady {
					continue
				}
				if e, ok := a.part.stage2.Lookup(a.ipa >> hw.PageShift); ok && e.Valid {
					if gid, bad := s.sharedPFN[e.Frame]; bad {
						t.Fatalf("round %d: unshared alloc's frame %d registered to grant %d", round, e.Frame, gid)
					}
				}
			}
		}
		// Drain all recoveries before the simulation ends.
		for _, part := range parts {
			s.AwaitReady(p, part)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("simulation error (I5): %v", err)
	}
	return reach
}

// isolationRounds is the length of the fixed schedule, and fuzzRounds the
// bound on one the fuzzer writes: a short schedule keeps each exec, and the
// minimization of every new input, cheap enough for the engine to explore,
// while the fixed one covers long histories.
const (
	isolationRounds = 400
	fuzzRounds      = 64
)

// TestShareFailureStateMachineFuzz runs the isolation schedule on one fixed
// input: isolationRounds rounds whose choices are bytes drawn from seed
// 0xC0FFEE (a round reads at most three). The input must reach every
// teardown path the invariants are about — shares, failures, a trap
// delivered on access, an access through a dead incarnation's view and a
// revoked grant — or it checks less than it claims. (A peer trapping first
// on a revoked grant is the checked-in revoke-peer-traps-first seed's.)
func TestShareFailureStateMachineFuzz(t *testing.T) {
	b := make([]byte, 3*isolationRounds)
	rand.New(rand.NewSource(0xC0FFEE)).Read(b)
	r := runIsolationSchedule(t, b, isolationRounds)
	if r.shares == 0 || r.fails == 0 || r.traps == 0 || r.staleAccesses == 0 || r.revokes == 0 {
		t.Errorf("the fixed schedule reached %+v: some teardown path never ran", r)
	}
	t.Logf("reach: %+v", r)
}

// FuzzIsolation runs the isolation schedule on bytes the fuzzer writes, up to
// fuzzRounds rounds, with the same invariants checked after every step. The
// checked-in corpus under testdata/fuzz/FuzzIsolation holds schedules that
// share and then fail the owner, fail the peer and take the trap, unshare
// before two failures, and revoke a grant whose peer traps before its owner
// (then share the page again).
func FuzzIsolation(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		runIsolationSchedule(t, b, fuzzRounds)
	})
}
