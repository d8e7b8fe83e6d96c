package rodinia_test

import (
	"testing"

	"cronus/internal/accel"
	"cronus/internal/baseline"
	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/sim"
	"cronus/internal/workload/rodinia"
)

// timeOn measures one benchmark pass in virtual time on a given system.
func timeOn(t *testing.T, b rodinia.Benchmark, system baseline.System) sim.Duration {
	t.Helper()
	var elapsed sim.Duration
	switch system {
	case baseline.CRONUS:
		err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
			s, err := pl.NewSession(p, "rodinia")
			if err != nil {
				return err
			}
			ops, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: b.Cubin(), RingPages: 65})
			if err != nil {
				return err
			}
			defer ops.Close(p)
			start := p.Now()
			if err := b.Run(p, ops); err != nil {
				return err
			}
			elapsed = sim.Duration(p.Now() - start)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	default:
		k := sim.NewKernel()
		var fail error
		k.Spawn("main", func(p *sim.Proc) {
			defer k.Stop()
			costs := sim.DefaultCosts()
			dev := gpu.New(k, costs, gpu.TuringConfig("g"))
			var ops accel.CUDA
			var err error
			switch system {
			case baseline.Native:
				ops, err = baseline.NewNativeCUDA(dev, costs, b.Cubin())
			case baseline.TrustZone:
				ops, err = baseline.NewTrustZoneCUDA(dev, costs, b.Cubin())
			case baseline.HIX:
				ops, err = baseline.NewHIXCUDA(dev, costs, b.Cubin())
			}
			if err != nil {
				fail = err
				return
			}
			start := p.Now()
			if err := b.Run(p, ops); err != nil {
				fail = err
				return
			}
			elapsed = sim.Duration(p.Now() - start)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if fail != nil {
			t.Fatal(fail)
		}
	}
	return elapsed
}

func TestAllBenchmarksRunOnAllSystems(t *testing.T) {
	for _, b := range rodinia.AllExtended() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			native := timeOn(t, b, baseline.Native)
			tz := timeOn(t, b, baseline.TrustZone)
			hix := timeOn(t, b, baseline.HIX)
			cronus := timeOn(t, b, baseline.CRONUS)
			t.Logf("%-11s native=%v tz=%v hix=%v cronus=%v (cronus %.2fx, hix %.2fx)",
				b.Name, native, tz, hix, cronus,
				float64(cronus)/float64(native), float64(hix)/float64(native))
			if native <= 0 {
				t.Fatal("no virtual time elapsed")
			}
			// Shape checks from Figure 7: native <= tz <= hix;
			// CRONUS close to native; HIX pays lock-step crypto RPC.
			if tz < native {
				t.Error("monolithic TrustZone faster than native")
			}
			if float64(cronus) > 1.35*float64(native) {
				t.Errorf("CRONUS %.2fx native — outside Figure 7's band", float64(cronus)/float64(native))
			}
			if hix < cronus {
				t.Error("HIX-TrustZone beat CRONUS — contradicts Figure 7")
			}
		})
	}
}

func TestLaunchHeavyBenchmarksPunishHIX(t *testing.T) {
	// gaussian/nw issue hundreds of tiny launches; lock-step HIX must be
	// dramatically slower there (the Figure 7 signature).
	for _, name := range []string{"gaussian", "nw"} {
		b, err := rodinia.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		native := timeOn(t, b, baseline.Native)
		hix := timeOn(t, b, baseline.HIX)
		if float64(hix) < 1.5*float64(native) {
			t.Errorf("%s: HIX %.2fx native, expected >1.5x", name, float64(hix)/float64(native))
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := rodinia.ByName("mummergpu"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
