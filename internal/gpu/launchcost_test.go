package gpu_test

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"testing"

	_ "cronus/internal/dnn" // registers the training kernels
	"cronus/internal/gpu"
	"cronus/internal/sim"
	_ "cronus/internal/workload/rodinia" // registers the Rodinia kernels
)

// costProbes are the (grid, args) pairs testdata/launchcost_46sm.golden was
// captured at, in the order of its probe column.
var costProbes = []struct {
	grid gpu.Dim
	args []uint64
}{
	{gpu.Dim{1, 1, 1}, []uint64{1, 2, 3, 4, 5, 6, 7, 8}},
	{gpu.Dim{1000, 1, 1}, []uint64{0, 0, 0, 32, 64, 128, 0, 0}},
	{gpu.Dim{64, 64, 4}, []uint64{0, 0, 0, 512, 1024, 256, 9, 9}},
	{gpu.Dim{100000, 1, 1}, []uint64{0, 0, 0, 7, 3, 5, 0, 0}},
}

// TestLaunchCostPinnedAt46SMs holds every std, rodinia and dnn kernel's
// LaunchCost on a 46-SM device to the table captured at the last commit whose
// kernels were registered with the SM count baked in (RegisterStdKernels(46),
// rodinia.RegisterKernels(46), dnn.RegisterKernels(46)): one line per kernel
// and probe — name, probe, Work in ns, SMDemand as float64 bits.
func TestLaunchCostPinnedAt46SMs(t *testing.T) {
	f, err := os.Open("testdata/launchcost_46sm.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
		var name string
		var probe int
		var work int64
		var demand uint64
		if _, err := fmt.Sscanf(sc.Text(), "%s %d %d %x", &name, &probe, &work, &demand); err != nil {
			t.Fatalf("golden line %q: %v", sc.Text(), err)
		}
		k, ok := gpu.Lookup(name)
		if !ok {
			t.Errorf("kernel %q is in the golden table but not registered", name)
			continue
		}
		pr := costProbes[probe]
		got := k.Cost(46, pr.grid, pr.args)
		if int64(got.Work) != work || math.Float64bits(got.SMDemand) != demand {
			t.Errorf("%s probe %d: Work %d ns, SMDemand %v; the table has %d ns, %v",
				name, probe, int64(got.Work), got.SMDemand, work, math.Float64frombits(demand))
		}
	}
	if lines != 29*len(costProbes) {
		t.Errorf("golden table has %d lines, want 29 kernels x %d probes", lines, len(costProbes))
	}
}

// TestLaunchPricedForItsOwnDevice keeps a 23-SM and a 46-SM device alive in
// one kernel, created in either order: vec_add fills half of the device it is
// launched on — 11.5 SMs on one, 23 on the other — so on each device two
// tenants' launches run side by side in the time of one.
func TestLaunchPricedForItsOwnDevice(t *testing.T) {
	const n = 1 << 20
	vecAdd, _ := gpu.Lookup("vec_add")
	for _, order := range [][]int{{23, 46}, {46, 23}} {
		k := sim.NewKernel()
		var devs []*gpu.Device
		for _, sms := range order {
			cfg := gpu.TuringConfig(fmt.Sprintf("gpu-%dsm", sms))
			cfg.SMs = sms
			devs = append(devs, gpu.New(k, sim.DefaultCosts(), cfg))
		}
		for i, d := range devs {
			if c := vecAdd.Cost(d.SMs(), gpu.Dim{n, 1, 1}, nil); c.SMDemand != float64(order[i])/2 {
				t.Errorf("created in order %v: vec_add on %s demands %v SMs, want %v", order, d.Name(), c.SMDemand, float64(order[i])/2)
			}
		}
		k.Spawn("driver", func(p *sim.Proc) {
			defer k.Stop()
			for _, d := range devs {
				elapsed := func(tenants int) sim.Duration {
					start := p.Now()
					wg := sim.NewWaitGroup(k)
					for i := 0; i < tenants; i++ {
						wg.Add(1)
						k.Spawn("tenant", func(tp *sim.Proc) {
							defer wg.Done()
							ctx := d.CreateContext()
							if err := ctx.LoadModule(gpu.BuildCubin("vec_add")); err != nil {
								t.Error(err)
								return
							}
							buf, err := ctx.MemAlloc(4 * n)
							if err != nil {
								t.Error(err)
								return
							}
							if err := ctx.Launch(tp, "vec_add", gpu.Dim{n, 1, 1}, buf, buf, buf); err != nil {
								t.Error(err)
							}
						})
					}
					wg.Wait(p)
					return sim.Duration(p.Now() - start)
				}
				if one, two := elapsed(1), elapsed(2); two != one {
					t.Errorf("created in order %v: two half-device launches on %s took %v, one took %v", order, d.Name(), two, one)
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
