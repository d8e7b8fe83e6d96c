package srpc_test

import (
	"math/rand"
	"testing"

	"cronus/internal/metrics"
	"cronus/internal/mos/driver"
	"cronus/internal/sim"
	"cronus/internal/srpc"
)

// TestDoorbellCycleDoesNotAllocate: on a warm ring, arming a doorbell, the
// write that rings it, the wake and the disarm allocate nothing — with one
// waiter, with two waiting on the same owner ring at once, as concurrent
// pushers of fused records do when the ring is full, and with a Sid waiter's
// doorbell armed for its target, whose kernel-side answers (a sleep to the
// grid, a peek that finds Sid short, a wait again) allocate nothing either.
// It also holds every cycle to leaving the watch registry as it found it.
func TestDoorbellCycleDoesNotAllocate(t *testing.T) {
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		k, mem := p.Kernel(), h.pl.M.Mem
		// The executor: rewrites Sid whenever it is told to.
		ring := sim.NewMailbox[struct{}](k, "ring")
		k.Spawn("executor", func(q *sim.Proc) {
			for {
				ring.Recv(q)
				if err := c.RewriteSid(q); err != nil {
					t.Error(err)
				}
			}
		})
		// The executor again, advancing Sid by one when told to: first a
		// rewrite, which rings the doorbell short of its target, then the
		// advance, each after a sleep so the waiter is parked by then.
		advance := sim.NewMailbox[uint64](k, "advance")
		k.Spawn("advancer", func(q *sim.Proc) {
			for {
				base, _ := advance.Recv(q)
				q.Sleep(100 * sim.Nanosecond)
				if err := c.WriteSid(q, base); err != nil {
					t.Error(err)
				}
				q.Sleep(sim.Microsecond)
				if err := c.WriteSid(q, base+1); err != nil {
					t.Error(err)
				}
			}
		})
		// A second pusher: waits on the doorbell whenever it is told to.
		second, secondDone := sim.NewMailbox[struct{}](k, "second"), sim.NewMailbox[struct{}](k, "second-done")
		k.Spawn("pusher-2", func(q *sim.Proc) {
			for {
				second.Recv(q)
				if !c.DoorbellWait(q, func() {}, srpc.OffSid) {
					t.Error("second pusher: doorbell fell back")
				}
				secondDone.Send(struct{}{})
			}
		})
		// Let both helpers reach their mailboxes, and the stream's own
		// executor go idle and arm its doorbell, so that the first cycle is
		// like every other and the registry is at rest before it is counted.
		if _, err := c.Call(p, driver.CallSync, nil); err != nil {
			return err
		}
		p.Sleep(10 * sim.Microsecond)
		ringIt := func() { ring.Send(struct{}{}) }
		cycles := map[string]func(){
			"one waiter": func() {
				if !c.DoorbellWait(p, ringIt, srpc.OffSid) {
					t.Error("doorbell fell back")
				}
			},
			"armed for its target": func() {
				base, err := c.WaitSid(p, 0, 400*sim.Nanosecond, srpc.WaitTargeted) // reads Sid now
				if err != nil {
					t.Error(err)
				}
				advance.Send(base)
				if sid, err := c.WaitSid(p, base+1, 400*sim.Nanosecond, srpc.WaitTargeted); err != nil || sid != base+1 {
					t.Errorf("the targeted wait ended on Sid %d (%v), want %d", sid, err, base+1)
				}
				if err := c.WriteSid(p, base); err != nil {
					t.Error(err)
				}
			},
			"two pushers on one ring": func() {
				second.Send(struct{}{}) // arms after us, before the executor runs
				if !c.DoorbellWait(p, ringIt, srpc.OffSid) {
					t.Error("doorbell fell back")
				}
				secondDone.Recv(p)
			},
		}
		for name, cycle := range cycles {
			cycle() // warm: doorbells made, wait queues grown
			watches := mem.WatchCount()
			if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
				t.Errorf("%s: %.1f allocations per doorbell cycle, want 0", name, allocs)
			}
			if n := mem.WatchCount(); n != watches {
				t.Errorf("%s: %d write watches registered after the cycles, %d before", name, n, watches)
			}
		}
		if n := c.IdleDoorbells(); n != 2 {
			t.Errorf("the ring holds %d idle doorbells after two concurrent waiters, want 2", n)
		}
		return c.Close(p)
	})
}

// TestDoorbellPartialArmLeavesNoWatch: when the second word of a doorbell is
// not mapped, arming fails as a whole — the watch already placed on the first
// word is removed, the doorbell goes back to its ring, and the wait is
// counted as a fallback to polling.
func TestDoorbellPartialArmLeavesNoWatch(t *testing.T) {
	metrics.Default.Reset()
	metrics.Default.Enable()
	defer metrics.Default.Disable()
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		mem := h.pl.M.Mem
		watches, idle := mem.WatchCount(), c.IdleDoorbells()
		pre := metrics.Default.Snapshot()
		const unmapped = 1 << 40 // far past the stream's region
		if c.DoorbellWait(p, func() { t.Error("armed with an unmapped word") }, srpc.OffSid, unmapped) {
			t.Error("arming reported success")
		}
		if n := mem.WatchCount(); n != watches {
			t.Errorf("%d write watches after the failed arming, %d before", n, watches)
		}
		if n := c.IdleDoorbells(); n != idle+1 {
			t.Errorf("%d idle doorbells after the failed arming, want %d", n, idle+1)
		}
		if fb := metrics.Default.Snapshot().CounterDelta(pre, "srpc.doorbell.fallback"); fb != 1 {
			t.Errorf("srpc.doorbell.fallback grew by %d, want 1", fb)
		}
		// The recycled doorbell is whole: it arms and rings.
		k := p.Kernel()
		k.Spawn("executor", func(q *sim.Proc) {
			if err := c.RewriteSid(q); err != nil {
				t.Error(err)
			}
		})
		if !c.DoorbellWait(p, func() {}, srpc.OffSid) {
			t.Error("the recycled doorbell did not arm")
		}
		return c.Close(p)
	})
}

// TestSidDoorbellMatchesResumedWaits: a doorbell answers in the kernel the
// wakes of its waiter that would only sleep to the read grid, and one armed
// for its waiter's target also the grid reads that would only find Sid short;
// the waiter must still leave at the instant, with the Sid, and after the very
// events of the doorbell every wake resumed. Sixty seeded schedules of Sid
// writes — rewrites of the same value, writes on a grid instant or a
// nanosecond either side of one, a writer
// that blocks several times between two writes, now and then a poisoned Sid
// past every target — run in turn on one stream three times over: waits that
// resume on every wake (alignedWait as it was), doorbells armed for 0, and
// doorbells armed for the target. Every wait returns at the same instant with
// the same Sid after the same number of dispatched events, and the armed
// doorbell resumes its waiter exactly once.
func TestSidDoorbellMatchesResumedWaits(t *testing.T) {
	const period = 40 * sim.Nanosecond
	type step struct {
		sleeps []sim.Duration
		sid    uint64 // above the Sid the stream starts the wait with
	}
	type schedule struct {
		target uint64
		steps  []step
	}
	var schedules []schedule
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := schedule{target: 1 + uint64(rng.Intn(6))}
		for sid := uint64(0); sid < sc.target; {
			var st step
			for n := 1 + rng.Intn(3); n > 0; n-- {
				d := sim.Duration(rng.Intn(9)) * 10 // often onto a grid instant
				if rng.Intn(2) == 0 {
					d += sim.Duration(rng.Intn(3)) - 1 // or a nanosecond either side
				}
				st.sleeps = append(st.sleeps, max(d, 0)*sim.Nanosecond)
			}
			if rng.Intn(12) == 0 {
				sid = sc.target + 1000 // poisoned
			} else {
				sid += uint64(rng.Intn(2))
			}
			st.sid = sid
			sc.steps = append(sc.steps, st)
		}
		schedules = append(schedules, sc)
	}
	type outcome struct {
		at         sim.Time
		sid        uint64
		dispatched uint64
	}
	var got [3][]outcome
	var resumes [3][]uint64
	for mode := range got {
		run(t, func(h *harness, p *sim.Proc) error {
			c, err := h.connect(p)
			if err != nil {
				return err
			}
			k := p.Kernel()
			base, err := c.WaitSid(p, 0, period, mode)
			if err != nil {
				return err
			}
			for _, sc := range schedules {
				if err := c.WriteSid(p, base); err != nil {
					return err
				}
				done := sim.NewMailbox[struct{}](k, "writer-done")
				k.Spawn("writer", func(q *sim.Proc) {
					for _, st := range sc.steps {
						for _, d := range st.sleeps {
							q.Sleep(d)
						}
						if err := c.WriteSid(q, base+st.sid); err != nil {
							t.Error(err)
						}
					}
					done.Send(struct{}{})
				})
				r0 := p.Resumes()
				sid, err := c.WaitSid(p, base+sc.target, period, mode)
				if err != nil {
					return err
				}
				got[mode] = append(got[mode], outcome{p.Now(), sid - base, k.Dispatched()})
				resumes[mode] = append(resumes[mode], p.Resumes()-r0)
				done.Recv(p)
			}
			if err := c.WriteSid(p, base); err != nil {
				return err
			}
			return c.Close(p)
		})
	}
	saved := 0
	for i := range schedules {
		if got[1][i] != got[0][i] || got[2][i] != got[0][i] {
			t.Errorf("schedule %d: resumed waits returned %+v, doorbell armed for 0 %+v, armed for the target %+v",
				i, got[0][i], got[1][i], got[2][i])
		}
		if resumes[2][i] != 1 {
			t.Errorf("schedule %d: the armed doorbell resumed its waiter %d times, want 1", i, resumes[2][i])
		}
		if resumes[1][i] > resumes[0][i] || resumes[2][i] > resumes[1][i] {
			t.Errorf("schedule %d: the waiter resumed %v times (resumed, armed for 0, armed for the target)",
				i, [3]uint64{resumes[0][i], resumes[1][i], resumes[2][i]})
		}
		if resumes[0][i] > resumes[1][i] && resumes[1][i] > 1 {
			saved++
		}
	}
	if saved == 0 {
		t.Error("no schedule had both kinds of wake to answer: a sleep to the grid and a short read")
	}
}

// TestBarrierResumesItsClientOnce: a Barrier behind k streamed HtoD records
// waits through k advances of Sid, each a write that rings its doorbell, and
// its client still runs twice: once for the first read, RingPoll after entry,
// and once when Sid reaches Rid. Every other wake — each advance, and each
// grid read that would have found Sid short — is answered in the kernel and
// counted in sim.wakes.rekeyed. A doorbell that resumed its waiter on every
// wake ran the client at least once per advance.
func TestBarrierResumesItsClientOnce(t *testing.T) {
	const k, chunk = 8, 4096
	metrics.Default.Reset()
	metrics.Default.Enable()
	defer metrics.Default.Disable()
	run(t, func(h *harness, p *sim.Proc) error {
		c, err := h.connect(p)
		if err != nil {
			return err
		}
		res, err := c.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(k*chunk))
		if err != nil {
			return err
		}
		ptr, _ := driver.DecodePtr(res)
		from := c.NextSlot()
		data := make([]byte, chunk)
		for i := uint64(0); i < k; i++ {
			if _, err := c.Call(p, driver.CallHtoD, driver.EncodeHtoD(ptr+i*chunk, data)); err != nil {
				return err
			}
		}
		sid, err := c.WaitSid(p, 0, sim.Microsecond, srpc.WaitResumed) // reads Sid now
		if err != nil {
			return err
		}
		perRecord := (c.NextSlot() - from) / k
		pending := (c.NextSlot() - sid) / perRecord
		if pending < k-1 {
			t.Fatalf("only %d of the %d records are pending when the barrier starts", pending, k)
		}
		pre, r0 := metrics.Default.Snapshot(), p.Resumes()
		if err := c.Barrier(p); err != nil {
			return err
		}
		rekeyed := metrics.Default.Snapshot().CounterDelta(pre, "sim.wakes.rekeyed")
		if n := p.Resumes() - r0; n != 2 {
			t.Errorf("the barrier resumed its client %d times, want 2 (its first read and its last)", n)
		}
		if rekeyed < pending {
			t.Errorf("%d wakes re-keyed during the barrier, want at least %d: one per advance of Sid it waited through", rekeyed, pending)
		}
		t.Logf("%d records pending, %d wakes re-keyed", pending, rekeyed)
		return c.Close(p)
	})
}
