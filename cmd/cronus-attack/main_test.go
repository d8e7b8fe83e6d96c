package main

import (
	"testing"

	"cronus/internal/core"
	"cronus/internal/sim"
)

// TestEveryAttackDefended runs the harness's attacks in order on one
// platform, as the command does, and fails on any breach, naming the attack:
// a defence that stops holding fails the test suite, not only the command's
// exit status.
func TestEveryAttackDefended(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		for _, a := range attacks() {
			if ok, detail := a.run(pl, p); !ok {
				t.Errorf("%s: BREACHED: %s", a.name, detail)
			}
			pl.SPM.AwaitReady(p, pl.GPUs[0].Part)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
