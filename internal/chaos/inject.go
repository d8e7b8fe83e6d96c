package chaos

import (
	"errors"
	"fmt"

	"cronus/internal/core"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/srpc"
)

// Injector arms one compiled Schedule on one booted platform. Arm installs
// every hook and Disarm removes them; all of them live on the platform (its
// dispatcher's sRPC call hook, its SPM's attestation veto, its devices), so
// campaigns on separate platforms run side by side.
type Injector struct {
	pl    *core.Platform
	sched *Schedule
	// fired is index-aligned with the schedule's faults. Dormant faults
	// (triggers the run never reached) are normal for ordinal-based triggers.
	fired []bool
	// injectAt records, per fault index, the virtual instant a
	// persistent-hang wedge actually landed (zero otherwise) — the origin
	// of the watchdog detection-latency assertion.
	injectAt []sim.Time
}

// attestOutage is the per-fault countdown of an armed KindAttestFail.
type attestOutage struct {
	part      *spm.Partition
	epoch0    uint64 // partition epoch when armed; veto only after a restart
	remaining int
	idx       int // fault index, for fired bookkeeping
}

// NewInjector binds a schedule to a platform without arming anything.
func NewInjector(pl *core.Platform, sched *Schedule) *Injector {
	return &Injector{
		pl:       pl,
		sched:    sched,
		fired:    make([]bool, len(sched.Faults)),
		injectAt: make([]sim.Time, len(sched.Faults)),
	}
}

// Arm installs every fault in the schedule: crash timer procs, the platform's
// sRPC call hook for ring corruptions, one-shot launch hangs, and the SPM
// attestation veto. Call it after the serving plane (and any probes) are
// built, immediately before Serve, so trigger ordinals count from the same
// origin on every run.
func (in *Injector) Arm(p *sim.Proc) {
	var outages []*attestOutage
	for i, f := range in.sched.Faults {
		i, f := i, f
		switch f.Kind {
		case KindCrash:
			part := in.pl.GPUs[f.Partition].Part
			in.pl.K.Spawn(fmt.Sprintf("chaos-crash-%d", i), func(cp *sim.Proc) {
				cp.Sleep(f.After)
				// Fail returns nil when the partition is already down
				// (e.g. a second crash landing inside the first
				// recovery); only a real trap counts as fired.
				if rec := in.pl.SPM.Fail(part, spm.FailPanic); rec != nil {
					in.hit(i)
				}
			})
		case KindDeviceHang:
			in.pl.GPUs[f.Partition].Dev.ArmLaunchHang(f.Launch)
		case KindPersistentHang:
			os := in.pl.GPUs[f.Partition].OS
			in.pl.K.Spawn(fmt.Sprintf("chaos-wedge-%d", i), func(cp *sim.Proc) {
				cp.Sleep(f.After)
				// The wedge only lands on a live publisher of a ready
				// partition; anything else (supervision off, partition
				// mid-recovery) leaves the fault dormant.
				if os.InjectWedge() {
					in.injectAt[i] = cp.Now()
					in.hit(i)
				}
			})
		case KindCrashLoop:
			part := in.pl.GPUs[f.Partition].Part
			in.pl.K.Spawn(fmt.Sprintf("chaos-crashloop-%d", i), func(cp *sim.Proc) {
				cp.Sleep(f.After)
				// Crash, wait out the recovery, crash again — each
				// successful Fail is one sliding-window entry. The loop
				// ends early once the partition is quarantined (by us or
				// by overlapping faults).
				for n := 0; n < f.Crashes; {
					if rec := in.pl.SPM.Fail(part, spm.FailPanic); rec != nil {
						in.hit(i)
						n++
						if rec.Quarantined {
							return
						}
					}
					if err := in.pl.SPM.AwaitReady(cp, part); err != nil {
						return
					}
				}
			})
		case KindAttestFail:
			part := in.pl.GPUs[f.Partition].Part
			outages = append(outages, &attestOutage{
				part: part, epoch0: part.Epoch(), remaining: f.Fails, idx: i,
			})
		}
	}
	if in.sched.has(KindRingCorrupt) {
		in.pl.D.CallHook().Set(func(hp *sim.Proc, c *srpc.Client, n uint64) {
			for i, f := range in.sched.Faults {
				if f.Kind == KindRingCorrupt && !in.fired[i] &&
					c.StreamID() == f.Stream && n == f.AfterCalls {
					in.hit(i)
					_ = c.InjectRecordCorruption(hp, f.Mask)
				}
			}
		})
	}
	if len(outages) > 0 {
		in.pl.SPM.SetAttestFault(func(part *spm.Partition) error {
			for _, o := range outages {
				if o.part != part || part.Epoch() == o.epoch0 || o.remaining <= 0 {
					continue
				}
				o.remaining--
				in.hit(o.idx)
				return errors.New("provisioning infrastructure unavailable (chaos-injected)")
			}
			return nil
		})
	}
}

// Disarm removes the platform's hooks and settles the fired flags of
// launch-hang faults (a hang fired iff the device's launch counter passed
// its ordinal). Call it once Serve has returned, before any probe checks —
// probes reconnect to restarted partitions and must not be vetoed.
func (in *Injector) Disarm() {
	in.pl.D.CallHook().Set(nil)
	in.pl.SPM.SetAttestFault(nil)
	for i, f := range in.sched.Faults {
		if f.Kind == KindDeviceHang && !in.fired[i] &&
			in.pl.GPUs[f.Partition].Dev.Launches() >= f.Launch {
			in.hit(i)
		}
	}
}

// hit marks fault i as fired.
func (in *Injector) hit(i int) {
	in.fired[i] = true
}
