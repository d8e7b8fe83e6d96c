package srpc_test

import (
	"testing"

	"cronus/internal/metrics"
	"cronus/internal/mos/driver"
	"cronus/internal/sim"
	"cronus/internal/srpc"
)

// TestDoorbellCycleDoesNotAllocate: on a warm ring, arming a doorbell, the
// write that rings it, the wake and the disarm allocate nothing — with one
// waiter, and with two waiting on the same owner ring at once, as concurrent
// pushers of fused records do when the ring is full. It also holds every
// cycle to leaving the watch registry as it found it.
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
