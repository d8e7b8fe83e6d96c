package spm

import (
	"errors"
	"testing"

	"cronus/internal/sim"
)

func TestRestartBackoffSchedule(t *testing.T) {
	sv := Supervision{RestartBackoff: 500 * sim.Microsecond, MaxBackoff: 4 * sim.Millisecond}
	cases := []struct {
		recent int
		want   sim.Duration
	}{
		{0, 0},
		{1, 0}, // first failure in the window restarts immediately
		{2, 500 * sim.Microsecond},
		{3, sim.Millisecond},
		{4, 2 * sim.Millisecond},
		{5, 4 * sim.Millisecond},
		{6, 4 * sim.Millisecond}, // capped at MaxBackoff
		{12, 4 * sim.Millisecond},
	}
	for _, c := range cases {
		if got := restartBackoff(sv, c.recent); got != c.want {
			t.Errorf("restartBackoff(recent=%d) = %v, want %v", c.recent, got, c.want)
		}
	}
	if got := restartBackoff(Supervision{}, 5); got != 0 {
		t.Errorf("restartBackoff with backoff disabled = %v, want 0", got)
	}
}

// TestSlidingWindowQuarantineAndRelease: the third panic inside the window
// quarantines the partition, and no release follows — quarantine is
// terminal, so the partition is still quarantined and refusing AwaitReady
// long after every restart it would have had.
func TestSlidingWindowQuarantineAndRelease(t *testing.T) {
	k, _, s := testRig(t)
	s.SetSupervision(Supervision{QuarantineAfter: 3, FailureWindow: sim.Second})
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	k.Spawn("test", func(proc *sim.Proc) {
		for i := 0; i < 2; i++ {
			rec := s.Fail(pb, FailPanic)
			if rec == nil || rec.Quarantined {
				t.Fatalf("failure %d: record %+v, want un-quarantined", i+1, rec)
			}
			if err := s.AwaitReady(proc, pb); err != nil {
				t.Fatalf("failure %d: AwaitReady: %v", i+1, err)
			}
		}
		rec := s.Fail(pb, FailPanic)
		if rec == nil || !rec.Quarantined {
			t.Fatalf("third failure inside the window: record %+v, want quarantined", rec)
		}
		var qe *QuarantinedError
		if err := s.AwaitReady(proc, pb); !errors.As(err, &qe) {
			t.Fatalf("AwaitReady on quarantined partition returned %v, want *QuarantinedError", err)
		}
		if pb.State() != PartQuarantined {
			t.Fatalf("state = %v, want %v", pb.State(), PartQuarantined)
		}
		proc.Sleep(2 * sim.Second)
		if err := s.AwaitReady(proc, pb); !errors.As(err, &qe) || pb.State() != PartQuarantined || rec.ReadyAt != 0 {
			t.Fatalf("two seconds on: AwaitReady %v, state %v, ready at %v; want still quarantined", err, pb.State(), rec.ReadyAt)
		}
		if again := s.Fail(pb, FailPanic); again != nil {
			t.Fatalf("a quarantined partition failed again: %+v", again)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFailureWindowExpiryPreventsQuarantine(t *testing.T) {
	k, _, s := testRig(t)
	s.SetSupervision(Supervision{QuarantineAfter: 2, FailureWindow: 400 * sim.Millisecond})
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	k.Spawn("test", func(proc *sim.Proc) {
		// Failures spaced wider than the window never accumulate.
		for i := 0; i < 4; i++ {
			rec := s.Fail(pb, FailPanic)
			if rec == nil {
				t.Fatalf("failure %d refused", i+1)
			}
			if rec.Quarantined {
				t.Fatalf("failure %d quarantined despite expired window", i+1)
			}
			if err := s.AwaitReady(proc, pb); err != nil {
				t.Fatal(err)
			}
			proc.Sleep(450 * sim.Millisecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRestartBackoffExtendsRecovery(t *testing.T) {
	k, _, s := testRig(t)
	s.SetSupervision(Supervision{RestartBackoff: sim.Millisecond})
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	k.Spawn("test", func(proc *sim.Proc) {
		rec1 := s.Fail(pb, FailPanic)
		if err := s.AwaitReady(proc, pb); err != nil {
			t.Fatal(err)
		}
		rec2 := s.Fail(pb, FailPanic)
		if err := s.AwaitReady(proc, pb); err != nil {
			t.Fatal(err)
		}
		if rec1.Backoff != 0 {
			t.Errorf("first failure backoff = %v, want 0", rec1.Backoff)
		}
		if rec2.Backoff != sim.Millisecond {
			t.Errorf("second failure backoff = %v, want 1ms", rec2.Backoff)
		}
		base := sim.Duration(s.Costs.DeviceClear + s.Costs.MOSRestart)
		if rec1.Downtime() != base {
			t.Errorf("first downtime = %v, want %v", rec1.Downtime(), base)
		}
		if rec2.Downtime() != base+sim.Millisecond {
			t.Errorf("second downtime = %v, want %v", rec2.Downtime(), base+sim.Millisecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRequestedRestartsAreNotCrashLoopEvidence(t *testing.T) {
	k, _, s := testRig(t)
	s.SetSupervision(Supervision{QuarantineAfter: 2, FailureWindow: sim.Second})
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	k.Spawn("test", func(proc *sim.Proc) {
		// Two planned rollouts back to back: not crash-loop evidence.
		for i := 0; i < 2; i++ {
			if rec := s.Fail(pb, FailRequested); rec == nil || rec.Quarantined {
				t.Fatalf("requested restart %d: record %+v", i+1, rec)
			}
			if err := s.AwaitReady(proc, pb); err != nil {
				t.Fatal(err)
			}
		}
		// The first real panic right after is failure #1, not #3.
		if rec := s.Fail(pb, FailPanic); rec == nil || rec.Quarantined {
			t.Fatalf("panic after requested restarts: record %+v, want un-quarantined", rec)
		}
		if err := s.AwaitReady(proc, pb); err != nil {
			t.Fatal(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFailReasonStrings(t *testing.T) {
	cases := []struct {
		r    FailReason
		want string
	}{
		{FailRequested, "requested"},
		{FailPanic, "panic"},
		{FailHang, "hang"},
		{FailReason(99), "unknown"},
		{FailReason(-1), "unknown"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("FailReason(%d).String() = %q, want %q", c.r, got, c.want)
		}
	}
}
