package spm

import (
	"encoding/binary"
	"fmt"

	"cronus/internal/hw"
	"cronus/internal/sim"
)

// Supervision is the SPM's partition health policy: how hang detection,
// restart backoff, and crash-loop quarantine behave. The zero value (after
// defaulting) reproduces the legacy watchdog — a deadline of three missed
// heartbeat periods — with backoff and quarantine disabled, so recovery
// timing for a first failure is exactly DeviceClear+MOSRestart.
type Supervision struct {
	// HeartbeatEvery is the period on which each supervised mOS publishes
	// its heartbeat word (and the watchdog's poll period). Defaults to the
	// cost model's HangPollEvery.
	HeartbeatEvery sim.Duration
	// MissedBeats is K: the watchdog fails a partition with FailHang once
	// no heartbeat progress was observed for more than K periods.
	// Defaults to 3.
	MissedBeats int
	// RestartBackoff is the base of the exponential restart delay: the
	// n-th failure inside FailureWindow (n ≥ 2) delays the mOS reload by
	// RestartBackoff·2^(n-2), capped at MaxBackoff. Zero disables backoff.
	RestartBackoff sim.Duration
	// MaxBackoff caps the exponential restart delay. Defaults to
	// 8×RestartBackoff when backoff is enabled.
	MaxBackoff sim.Duration
	// QuarantineAfter is M: reaching M panic/hang failures inside
	// FailureWindow moves the partition to PartQuarantined instead of
	// restarting it. Zero disables quarantine.
	QuarantineAfter int
	// FailureWindow is the sliding window over which failures are counted
	// for backoff and quarantine. Defaults to one virtual second.
	FailureWindow sim.Duration
}

// withDefaults fills the zero fields from the cost model.
func (sv Supervision) withDefaults(costs *sim.CostModel) Supervision {
	if sv.HeartbeatEvery <= 0 {
		sv.HeartbeatEvery = costs.HangPollEvery
	}
	if sv.MissedBeats <= 0 {
		sv.MissedBeats = 3
	}
	if sv.RestartBackoff > 0 && sv.MaxBackoff <= 0 {
		sv.MaxBackoff = 8 * sv.RestartBackoff
	}
	if sv.FailureWindow <= 0 {
		sv.FailureWindow = sim.Second
	}
	return sv
}

// SetSupervision installs the health policy. Call before StartWatchdog;
// changing the policy mid-run is not supported.
func (s *SPM) SetSupervision(sv Supervision) { s.sup = sv }

// SupervisionConfig returns the effective (defaulted) health policy.
func (s *SPM) SupervisionConfig() Supervision { return s.sup.withDefaults(s.Costs) }

// HangDetectionBound is the worst-case latency under the policy from an mOS
// wedging to the watchdog raising FailHang: up to one poll period for the
// watchdog to observe the final pre-wedge beat (resetting its progress clock
// as late as wedge+period), then MissedBeats periods of required silence,
// then one more period of poll phase slack before the deadline check strictly
// exceeds — MissedBeats+2 periods in all. The SPM's effective bound is
// SupervisionConfig().HangDetectionBound().
func (sv Supervision) HangDetectionBound() sim.Duration {
	return sv.HeartbeatEvery * sim.Duration(sv.MissedBeats+2)
}

// restartBackoff is the exponential restart delay applied before the mOS
// reload when the partition has failed `recent` times inside the sliding
// window (this failure included): zero for a first failure, then
// base·2^(recent-2) capped at max.
func restartBackoff(sv Supervision, recent int) sim.Duration {
	if sv.RestartBackoff <= 0 || recent < 2 {
		return 0
	}
	d := sv.RestartBackoff
	for i := 2; i < recent; i++ {
		d *= 2
		if d >= sv.MaxBackoff {
			return sv.MaxBackoff
		}
	}
	if d > sv.MaxBackoff {
		return sv.MaxBackoff
	}
	return d
}

// recordFailure appends a failure instant to the partition's sliding-window
// history and returns how many failures (this one included) fall inside the
// window. Operator-requested restarts (FailRequested, including UpdateMOS)
// are deliberately excluded: a planned rollout is not crash-loop evidence.
func (s *SPM) recordFailure(p *Partition, at sim.Time, reason FailReason) int {
	if reason == FailRequested {
		return 0
	}
	sv := s.SupervisionConfig()
	cut := at - sim.Time(sv.FailureWindow)
	keep := p.failTimes[:0]
	for _, t := range p.failTimes {
		if t > cut {
			keep = append(keep, t)
		}
	}
	p.failTimes = append(keep, at)
	return len(p.failTimes)
}

// QuarantinedError reports an operation refused because the partition is
// quarantined: its crash-loop history exceeded the supervision policy (or its
// measurement was revoked) and the SPM never restarts it.
type QuarantinedError struct {
	Partition string
}

// Error describes the refusal.
func (e *QuarantinedError) Error() string {
	return fmt.Sprintf("spm: partition %q is quarantined (crash-loop); release required", e.Partition)
}

// ArmHeartbeat registers the IPA of the partition's heartbeat word for the
// current incarnation. The mOS bumps the 64-bit little-endian word at that
// address on every heartbeat period; the watchdog reads it through the
// partition's own stage-2 table, so a wedged mOS cannot fake progress and a
// dead stage-2 mapping counts as silence. Re-arm after every restart (the
// page was scrubbed and the epoch moved).
func (p *Partition) ArmHeartbeat(ipa uint64) {
	p.beatIPA = ipa
	p.beatEpoch = p.epoch
	p.beatArmed = true
	p.beatSeen = 0
	p.lastBeat = p.spm.K.Now()
}

// WatchHangs opts the partition into watchdog supervision.
func (p *Partition) WatchHangs() {
	p.hangable = true
	p.lastBeat = p.spm.K.Now()
}

// beatProgress samples the partition's heartbeat word (if armed for the
// current incarnation) and returns the virtual time of the latest observed
// progress. Reading happens through the partition's stage-2 table into
// secure memory — the same path the hardware would walk — so an unmapped or
// scrubbed word reads as silence, never as progress.
func (s *SPM) beatProgress(p *Partition, now sim.Time) sim.Time {
	if p.beatArmed && p.beatEpoch == p.epoch && p.state == PartReady {
		if pfn, f := p.stage2.Translate(p.beatIPA>>hw.PageShift, hw.PermR); f == nil {
			var buf [8]byte
			pa := hw.PA(pfn<<hw.PageShift | p.beatIPA&(1<<hw.PageShift-1))
			if err := s.M.Mem.Read(hw.SecureWorld, pa, buf[:]); err == nil {
				word := binary.LittleEndian.Uint64(buf[:])
				if word != p.beatSeen {
					p.beatSeen = word
					p.lastBeat = now
				}
			}
		}
	}
	return p.lastBeat
}

// StartWatchdog starts the SPM hang detector: every HeartbeatEvery it
// samples each supervised partition's heartbeat (the shared word armed via
// ArmHeartbeat) and fails partitions silent for more than MissedBeats periods
// with FailHang. Detection latency is bounded by the policy's
// HangDetectionBound. Kill the returned proc to stop it.
func (s *SPM) StartWatchdog() *sim.Proc {
	sv := s.SupervisionConfig()
	deadline := sim.Time(sim.Duration(sv.MissedBeats) * sv.HeartbeatEvery)
	return s.K.Spawn("spm-watchdog", func(proc *sim.Proc) {
		for {
			proc.Sleep(sv.HeartbeatEvery)
			now := proc.Now()
			for _, p := range s.Partitions() { // id order: deterministic
				if !p.hangable || p.state != PartReady {
					continue
				}
				if now-s.beatProgress(p, now) > deadline {
					s.Fail(p, FailHang)
				}
			}
		}
	})
}

// AwaitReady blocks proc until the partition's in-flight recovery (if any)
// completes. If the partition is (or becomes) quarantined, AwaitReady
// returns a *QuarantinedError immediately instead of parking forever:
// quarantine is terminal.
func (s *SPM) AwaitReady(proc *sim.Proc, p *Partition) error {
	for p.state != PartReady {
		if p.state == PartQuarantined {
			return &QuarantinedError{Partition: p.Name}
		}
		p.restartSig.Wait(proc)
	}
	return nil
}
