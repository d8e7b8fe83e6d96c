package spm

import (
	"errors"
	"testing"

	"cronus/internal/metrics"
	"cronus/internal/sim"
)

// handlerFunc adapts a function to Handler.
type handlerFunc func(p *sim.Proc, c Call) (Reply, error)

func (f handlerFunc) Handle(p *sim.Proc, c Call) (Reply, error) { return f(p, c) }

// TestSMCChargesByKind pins the gate's toll in virtual time and in
// spm.world_switches: nothing for a target without a handler; 2·WorldSwitch
// before a call; for an invoke UntrustedMsg more before, and 2·WorldSwitch
// after it only if it succeeds; for a spawn nothing on the caller, and one
// WorldSwitch on the executor, which runs registered with the partition.
func TestSMCChargesByKind(t *testing.T) {
	metrics.Default.Reset()
	metrics.Default.Enable()
	defer metrics.Default.Disable()
	k, _, s := testRig(t)
	part, err := s.CreatePartition("p", "", []byte("image"))
	if err != nil {
		t.Fatal(err)
	}
	refused := errors.New("refused")
	var ranAt sim.Time
	registered := false
	s.RegisterHandler(part.ID, handlerFunc(func(p *sim.Proc, c Call) (Reply, error) {
		switch {
		case c.Kind == CallSpawnExecutor:
			return Reply{Run: func(tp *sim.Proc) {
				ranAt = tp.Now()
				_, registered = part.procs[tp]
			}}, nil
		case c.Nonce == 1:
			return Reply{}, refused
		}
		return Reply{EID: 7}, nil
	}))
	ws, msg := s.Costs.WorldSwitch, s.Costs.UntrustedMsg
	k.Spawn("normal-os", func(p *sim.Proc) {
		for _, tc := range []struct {
			name     string
			c        Call
			err      error
			cost     sim.Duration
			switches uint64
		}{
			{"no handler", Call{Kind: CallCreate, Part: part.ID + 1}, ErrNoPartition, 0, 0},
			{"create", Call{Kind: CallCreate, Part: part.ID}, nil, 2 * ws, 2},
			{"report", Call{Kind: CallReport, Part: part.ID}, nil, 2 * ws, 2},
			{"invoke", Call{Kind: CallInvoke, Part: part.ID}, nil, 4*ws + msg, 4},
			{"refused invoke", Call{Kind: CallInvoke, Part: part.ID, Nonce: 1}, refused, 2*ws + msg, 2},
			{"spawn", Call{Kind: CallSpawnExecutor, Part: part.ID}, nil, 0, 0},
		} {
			start, before := p.Now(), mWorldSwitches.Value()
			r, err := s.SMC(p, tc.c)
			if !errors.Is(err, tc.err) || (err == nil && tc.c.Kind == CallCreate && r.EID != 7) {
				t.Errorf("%s: reply %+v, err %v; want err %v", tc.name, r, err, tc.err)
			}
			if got := sim.Duration(p.Now() - start); got != tc.cost {
				t.Errorf("%s: charged %v, want %v", tc.name, got, tc.cost)
			}
			if got := mWorldSwitches.Value() - before; got != tc.switches {
				t.Errorf("%s: %d world switches, want %d", tc.name, got, tc.switches)
			}
		}
		spawned := p.Now()
		p.Sleep(2 * ws)
		if ranAt != spawned+sim.Time(ws) || !registered {
			t.Errorf("executor ran at %v registered %v; want %v, registered", ranAt, registered, spawned+sim.Time(ws))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := mWorldSwitches.Value(); got != 11 {
		t.Errorf("spm.world_switches = %d, want 11", got)
	}
}
