package spm

import (
	"errors"
	"strings"
	"testing"

	"cronus/internal/hw"
	"cronus/internal/metrics"
	"cronus/internal/sim"
	"cronus/internal/trace"
)

// A mid-run partition fault must leave a coherent observability record: the
// partition-failed instant at the fault time, the partition-ready instant at
// the recovery time, in that order, and a failover-latency histogram sample
// equal to the recorded downtime.
func TestFailTraceAndFailoverHistogram(t *testing.T) {
	k, _, s := testRig(t)
	p, err := s.CreatePartition("gpu-part", "gpu0", []byte("gpu mOS"))
	if err != nil {
		t.Fatal(err)
	}

	tc := &trace.Collector{}
	trace.Attach(k, tc)
	metrics.Default.Reset()
	metrics.Default.Enable()
	defer metrics.Default.Disable()

	var rec *FailureRecord
	k.Spawn("driver", func(proc *sim.Proc) {
		defer k.Stop()
		proc.Sleep(5 * sim.Microsecond)
		rec = s.Fail(p, FailPanic)
		s.AwaitReady(proc, p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.ReadyAt <= rec.FailedAt {
		t.Fatalf("bad failure record: %+v", rec)
	}

	var failed, ready *trace.Event
	for _, e := range tc.Events() {
		e := e
		switch {
		case strings.HasPrefix(e.Name, "partition-failed"):
			failed = &e
		case e.Name == "partition-ready":
			ready = &e
		}
	}
	if failed == nil || ready == nil {
		t.Fatalf("trace missing failure lifecycle instants (failed=%v ready=%v)", failed, ready)
	}
	if failed.Start != rec.FailedAt {
		t.Errorf("partition-failed at %d, record says %d", failed.Start, rec.FailedAt)
	}
	if ready.Start != rec.ReadyAt {
		t.Errorf("partition-ready at %d, record says %d", ready.Start, rec.ReadyAt)
	}
	if !strings.Contains(failed.Name, "panic") {
		t.Errorf("partition-failed instant does not carry the reason: %q", failed.Name)
	}

	snap := metrics.Default.Snapshot()
	h, ok := snap.Histograms["spm.failover.latency_ns"]
	if !ok {
		t.Fatal("snapshot missing spm.failover.latency_ns")
	}
	if h.Count != 1 {
		t.Fatalf("failover histogram count = %d, want 1", h.Count)
	}
	if want := int64(rec.Downtime()); h.Sum != want || h.Min != want || h.Max != want {
		t.Errorf("failover sample = {sum %d min %d max %d}, want all %d", h.Sum, h.Min, h.Max, want)
	}
	if got := snap.Counters["spm.partitions.failed"]; got != 1 {
		t.Errorf("spm.partitions.failed = %d, want 1", got)
	}
	if got := snap.Counters["spm.partitions.recovered"]; got != 1 {
		t.Errorf("spm.partitions.recovered = %d, want 1", got)
	}
}

// Two platforms alive in one process, advanced to different virtual times,
// each with its own collector: a TZASC denial on the first is recorded by the
// first platform's collector alone and stamped with its clock, not with the
// clock of whichever platform booted last.
func TestDenialCarriesItsOwnPlatformClock(t *testing.T) {
	k1, m1, _ := testRig(t)
	k2, _, _ := testRig(t)
	advance := func(k *sim.Kernel, d sim.Duration) {
		k.Spawn("tick", func(p *sim.Proc) {
			defer k.Stop()
			p.Sleep(d)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	advance(k1, 3*sim.Millisecond)
	advance(k2, 7*sim.Millisecond)

	tc1, tc2 := &trace.Collector{}, &trace.Collector{}
	trace.Attach(k1, tc1)
	trace.Attach(k2, tc2)
	var f *hw.Fault
	if err := m1.Mem.Read(hw.NormalWorld, m1.SecureBase(), make([]byte, 8)); !errors.As(err, &f) || f.Kind != hw.FaultTZASC {
		t.Fatalf("normal-world read of secure memory: %v, want a TZASC fault", err)
	}
	var denied []trace.Event
	if n := tc2.Len(); n != 0 {
		t.Errorf("the second platform's collector recorded %d events for a denial on the first", n)
	}
	for _, e := range tc1.Events() {
		if strings.HasPrefix(e.Name, "access-denied") {
			denied = append(denied, e)
		}
	}
	if len(denied) != 1 {
		t.Fatalf("%d access-denied instants for one denial", len(denied))
	}
	if denied[0].Start != k1.Now() {
		t.Errorf("access-denied stamped %d: the denying platform's clock reads %d, the other platform's %d",
			denied[0].Start, k1.Now(), k2.Now())
	}
}
