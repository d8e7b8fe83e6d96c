package chaos

import (
	"errors"
	"fmt"

	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/srpc"
)

// probeSet plants one secret-bearing CUDA mEnclave on every crash-target
// partition before the serving window opens, and audits after the drain
// that a crashed partition's memory was never readable again: the stale
// stream must fail with the typed peer error (never return data), and a
// fresh post-recovery enclave must read only scrubbed zeros. The set is
// created in baseline runs too — identically — so both runs share one
// virtual timeline up to the first fault.
type probeSet struct {
	pl     *core.Platform
	sess   *core.Session
	probes []*probe
}

// probe is one planted enclave: the partition it lives on, the epoch it was
// planted in, and the device pointer holding the secret pattern.
type probe struct {
	partIdx int
	part    *spm.Partition
	epoch0  uint64
	conn    *core.CUDAConn
	ptr     uint64
	secret  []byte
}

// newProbeSet plants probes on the given distinct partition indices, in
// order. With no crash targets it is a no-op, keeping fault-free
// timelines unperturbed.
func newProbeSet(p *sim.Proc, pl *core.Platform, parts []int) (*probeSet, error) {
	ps := &probeSet{pl: pl}
	if len(parts) == 0 {
		return ps, nil
	}
	sess, err := pl.NewSession(p, "chaos-probe")
	if err != nil {
		return nil, fmt.Errorf("chaos: probe session: %w", err)
	}
	ps.sess = sess
	for _, pi := range parts {
		conn, err := sess.OpenCUDA(p, core.CUDAOptions{
			Cubin:     gpu.BuildCubin("vec_add"),
			Partition: fmt.Sprintf("gpu-part%d", pi),
			Name:      fmt.Sprintf("chaos-probe/p%d", pi),
		})
		if err != nil {
			return nil, fmt.Errorf("chaos: probe enclave on gpu-part%d: %w", pi, err)
		}
		secret := make([]byte, 64)
		for i := range secret {
			secret[i] = byte(0xA5 ^ i ^ pi)
		}
		ptr, err := conn.MemAlloc(p, uint64(len(secret)))
		if err != nil {
			return nil, err
		}
		if err := conn.HtoD(p, ptr, secret); err != nil {
			return nil, err
		}
		ps.probes = append(ps.probes, &probe{
			partIdx: pi,
			part:    pl.GPUs[pi].Part,
			epoch0:  pl.GPUs[pi].Part.Epoch(),
			conn:    conn,
			ptr:     ptr,
			secret:  secret,
		})
	}
	return ps, nil
}

// check audits every probe whose partition actually restarted. It returns
// deterministic report lines (one per audited probe) and the list of
// isolation violations (empty on a clean run). Call it only after the
// injector is disarmed: the audit reconnects to restarted partitions and
// must not trip the attestation veto.
func (ps *probeSet) check(p *sim.Proc) (lines, violations []string) {
	for _, pr := range ps.probes {
		name := fmt.Sprintf("gpu-part%d", pr.partIdx)
		if pr.part.Epoch() == pr.epoch0 {
			lines = append(lines, fmt.Sprintf("probe %s: partition never restarted, audit skipped", name))
			continue
		}
		stale := "peer-failed"
		data, err := pr.conn.DtoH(p, pr.ptr, len(pr.secret))
		switch {
		case err == nil:
			stale = "READ-BACK"
			violations = append(violations, fmt.Sprintf(
				"probe %s: stale stream returned %d bytes after the crash (want typed peer failure)",
				name, len(data)))
		case !errors.Is(err, srpc.ErrPeerFailed):
			stale = "untyped-error"
			violations = append(violations, fmt.Sprintf(
				"probe %s: stale read failed with %q, want srpc.ErrPeerFailed", name, err))
		}
		// Fresh enclave in the new epoch: the same amount of device memory
		// must come back fully scrubbed. A quarantined partition never
		// comes back — the stale-read half above already proved isolation,
		// and there is no new epoch to audit.
		scrub := "zeros"
		if err := ps.pl.SPM.AwaitReady(p, pr.part); err != nil {
			lines = append(lines, fmt.Sprintf("probe %s: stale-read=%s scrub=quarantined", name, stale))
			continue
		}
		conn2, err := ps.sess.OpenCUDA(p, core.CUDAOptions{
			Cubin:     gpu.BuildCubin("vec_add"),
			Partition: name,
			Name:      fmt.Sprintf("chaos-probe/p%d.audit", pr.partIdx),
		})
		if err != nil {
			scrub = "unreachable"
			violations = append(violations, fmt.Sprintf(
				"probe %s: post-recovery reconnect failed: %v", name, err))
		} else {
			ptr2, err := conn2.MemAlloc(p, uint64(len(pr.secret)))
			var got []byte
			if err == nil {
				got, err = conn2.DtoH(p, ptr2, len(pr.secret))
			}
			if err != nil {
				scrub = "unreadable"
				violations = append(violations, fmt.Sprintf(
					"probe %s: post-recovery read failed: %v", name, err))
			} else {
				for _, b := range got {
					if b != 0 {
						scrub = "RESIDUE"
						violations = append(violations, fmt.Sprintf(
							"probe %s: post-recovery memory not scrubbed (nonzero byte)", name))
						break
					}
				}
			}
			_ = conn2.Close(p)
		}
		lines = append(lines, fmt.Sprintf("probe %s: stale-read=%s scrub=%s", name, stale, scrub))
	}
	return lines, violations
}
