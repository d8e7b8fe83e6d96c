package experiments

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"cronus/internal/baseline"
	"cronus/internal/core"
	"cronus/internal/normal"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

func TestFigure7ShapeMatchesPaper(t *testing.T) {
	rows, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("%d benchmarks, want 11", len(rows))
	}
	for _, r := range rows {
		// CRONUS within the paper's ≤7.1% band (plus simulation slack).
		if ov := r.Normalized[baseline.CRONUS]; ov > 1.09 {
			t.Errorf("%s: CRONUS %.3fx native, outside band", r.Benchmark, ov)
		}
		if r.Normalized[baseline.HIX] <= r.Normalized[baseline.CRONUS] {
			t.Errorf("%s: HIX not slower than CRONUS", r.Benchmark)
		}
		if r.Normalized[baseline.TrustZone] < 1.0 {
			t.Errorf("%s: TrustZone beat native", r.Benchmark)
		}
	}
	out := RenderFigure7(rows).String()
	if !strings.Contains(out, "gaussian") {
		t.Error("render missing benchmark rows")
	}
}

func TestFigure8ShapeMatchesPaper(t *testing.T) {
	rows, err := Figure8(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d models, want 4", len(rows))
	}
	for _, r := range rows {
		if ov := r.Overhead[baseline.CRONUS]; ov > 0.15 || ov < 0 {
			t.Errorf("%s: CRONUS overhead %.1f%% outside band", r.Model, 100*ov)
		}
		if r.Times[baseline.HIX] <= r.Times[baseline.CRONUS] {
			t.Errorf("%s: HIX not slower than CRONUS", r.Model)
		}
	}
	_ = RenderFigure8(rows)
}

func TestFigure9FailoverTimeline(t *testing.T) {
	r, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if r.CrashAt == 0 || r.ReadyAt <= r.CrashAt {
		t.Fatalf("crash/recovery not recorded: crash=%v ready=%v", r.CrashAt, r.ReadyAt)
	}
	// Recovery in hundreds of ms, orders of magnitude under a reboot.
	if r.MOSDowntime > sim.Second || r.MOSDowntime < 50*sim.Millisecond {
		t.Errorf("mOS downtime %v not in the hundreds-of-ms band", r.MOSDowntime)
	}
	if float64(r.MOSDowntime) > float64(r.RebootTime)/50 {
		t.Error("mOS restart not dramatically faster than reboot")
	}
	crashBucket := int(float64(r.CrashAt) / 1e6 / r.BucketMS)
	// Task A (healthy partition) keeps completing right through the crash.
	for i := crashBucket; i < crashBucket+4 && i < r.Buckets; i++ {
		if r.TaskA[i] == 0 {
			t.Errorf("task A stalled in bucket %d despite fault isolation", i)
		}
	}
	// Task B stops at the crash and resumes after recovery+resubmission.
	if r.TaskB[crashBucket+1] != 0 {
		t.Error("task B kept completing while its partition was down")
	}
	resumed := false
	for i := crashBucket + 2; i < r.Buckets; i++ {
		if r.TaskB[i] > 0 {
			resumed = true
			break
		}
	}
	if !resumed {
		t.Error("task B never resumed after recovery")
	}
	_ = RenderFigure9(r)
}

func TestFigure10aShape(t *testing.T) {
	rows, err := Figure10a()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d benchmarks", len(rows))
	}
	for _, r := range rows {
		native := r.Throughput[baseline.Native]
		cronus := r.Throughput[baseline.CRONUS]
		if cronus > native {
			t.Errorf("%s: CRONUS throughput above native", r.Benchmark)
		}
		if cronus < 0.85*native {
			t.Errorf("%s: CRONUS throughput %.2f of native, below band", r.Benchmark, cronus/native)
		}
	}
	_ = RenderFigure10a(rows)
}

func TestFigure10bShape(t *testing.T) {
	rows, err := Figure10b()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d models", len(rows))
	}
	for _, r := range rows {
		native := r.NPULatency[baseline.Native]
		cronus := r.NPULatency[baseline.CRONUS]
		if float64(cronus) > 1.1*float64(native) {
			t.Errorf("%s: CRONUS %.3fx native on NPU", r.Model, float64(cronus)/float64(native))
		}
		if r.CPULatency <= 0 {
			t.Errorf("%s: no CPU latency", r.Model)
		}
	}
	_ = RenderFigure10b(rows)
}

func TestFigure11aSpatialSharingGain(t *testing.T) {
	rows, err := Figure11a(12 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var one, two, four Fig11aRow
	for _, r := range rows {
		switch r.Tenants {
		case 1:
			one = r
		case 2:
			two = r
		case 4:
			four = r
		}
	}
	// Two tenants sharing spatially must beat temporal sharing
	// substantially (paper: up to 63.4%).
	if two.SpatialGainPct < 15 {
		t.Errorf("2 tenants: spatial gain only %.1f%%", two.SpatialGainPct)
	}
	// Aggregate throughput grows from 1 to 2 tenants.
	if two.SpatialSteps <= one.SpatialSteps {
		t.Errorf("aggregate throughput did not grow with 2 tenants: %d vs %d", two.SpatialSteps, one.SpatialSteps)
	}
	// At 4 tenants contention bites: per-tenant throughput degrades.
	if four.SpatialSteps/4 >= two.SpatialSteps/2 {
		t.Errorf("no contention at 4 tenants: per-tenant %d vs %d", four.SpatialSteps/4, two.SpatialSteps/2)
	}
	_ = RenderFigure11a(rows)
}

// TestTrainTenantsFailsLoudly: a tenant that cannot open its mEnclave, or whose
// training step fails, fails the run with an error naming the tenant. Before
// the tenant loop reported errors, both cases returned a smaller step count
// and a nil error.
func TestTrainTenantsFailsLoudly(t *testing.T) {
	const window = 4 * sim.Millisecond
	boom := errors.New("boom")
	steps, err := trainTenants(2, window, func(*core.Platform) {},
		func(_ *core.Platform, _ *sim.Proc, tenant, step int) error {
			if tenant == 1 && step == 3 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "tenant 1: step 3") {
		t.Errorf("tenant 1 failing its third step: %d steps, err %v; want an error naming tenant 1, step 3", steps, err)
	}

	// The normal world refuses to create executor threads: no tenant's
	// OpenCUDA can establish its stream.
	dropSpawns := normal.RelayFunc(func(p *sim.Proc, c spm.Call, gate normal.Gate) (spm.Reply, error) {
		if c.Kind == spm.CallSpawnExecutor {
			return spm.Reply{}, normal.ErrDropped
		}
		return gate(p, c)
	})
	steps, err = trainTenants(2, window, func(pl *core.Platform) { pl.D.Adversary = dropSpawns }, nil)
	if !errors.Is(err, normal.ErrDropped) || !strings.Contains(err.Error(), "tenant 0") || !strings.Contains(err.Error(), "executor") {
		t.Errorf("OpenCUDA refused: %d steps, err %v; want an error naming tenant 0 and the executor refusal", steps, err)
	}

	healthy, err := trainTenants(2, window, func(*core.Platform) {}, nil)
	if err != nil || healthy == 0 {
		t.Errorf("healthy run: %d steps, err %v", healthy, err)
	}
}

func TestFigure11bSharingModes(t *testing.T) {
	rows, err := Figure11b(3)
	if err != nil {
		t.Fatal(err)
	}
	get := func(gpus int, mode ShareMode) sim.Duration {
		for _, r := range rows {
			if r.GPUs == gpus && r.Mode == mode {
				return r.PerStep
			}
		}
		t.Fatalf("missing row %d/%s", gpus, mode)
		return 0
	}
	// P2P over PCIe is the fastest sharing mechanism (Figure 11b).
	for _, gpus := range []int{2, 4} {
		p2p := get(gpus, ShareP2P)
		sec := get(gpus, ShareSecureMem)
		enc := get(gpus, ShareEncrypted)
		if !(p2p < sec && sec < enc) {
			t.Errorf("%d GPUs: ordering p2p=%v secure=%v encrypted=%v wrong", gpus, p2p, sec, enc)
		}
	}
	_ = RenderFigure11b(rows)
}

func TestSRPCMicroOrdering(t *testing.T) {
	rows, err := SRPCMicro(100, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	stream, syncr, lock := rows[0].PerCall, rows[1].PerCall, rows[2].PerCall
	if !(stream < syncr && syncr < lock) {
		t.Errorf("per-call ordering wrong: stream=%v sync=%v lockstep=%v", stream, syncr, lock)
	}
	// Streaming must be dramatically cheaper than lock-step.
	if float64(lock) < 5*float64(stream) {
		t.Errorf("lock-step only %.1fx streaming", float64(lock)/float64(stream))
	}
	_ = RenderSRPCMicro(rows)
}

func TestTables(t *testing.T) {
	t1 := Table1()
	if len(t1.Rows) != 4 {
		t.Fatalf("Table I rows = %d", len(t1.Rows))
	}
	// CRONUS is the only all-yes row.
	for _, r := range t1.Rows {
		allYes := r[1] == "yes" && r[2] == "yes" && r[3] == "yes" && r[4] == "yes"
		if (r[0] == string(baseline.CRONUS)) != allYes {
			t.Errorf("Table I row %v wrong", r)
		}
	}
	t2, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t2.String(), "gpu0") {
		t.Error("Table II missing GPU row")
	}
	t3, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) < 6 {
		t.Errorf("Table III rows = %d", len(t3.Rows))
	}
	if !strings.Contains(t3.String(), "monolithic total") {
		t.Error("Table III missing monolithic total")
	}
	// cronus-loc's yardstick: one row per package directory, then a total
	// that is their sum.
	loc, err := PackageLoC()
	if err != nil {
		t.Fatal(err)
	}
	sum, counts := 0, map[string]int{}
	for _, r := range loc.Rows[:len(loc.Rows)-1] {
		n, err := strconv.Atoi(r[1])
		if err != nil || n <= 0 {
			t.Errorf("package %s: LoC %q", r[0], r[1])
		}
		counts[r[0]] = n
		sum += n
	}
	if counts["internal/serve"] <= 0 {
		t.Errorf("PackageLoC lists no lines for internal/serve: %v", loc.Rows)
	}
	if total := loc.Rows[len(loc.Rows)-1]; total[0] != "total" || total[1] != strconv.Itoa(sum) {
		t.Errorf("last row %v, want total %d", total, sum)
	}
}

func TestRecoveryTimes(t *testing.T) {
	rows, err := RecoveryTimes()
	if err != nil {
		t.Fatal(err)
	}
	var cronus, reboot sim.Duration
	for _, r := range rows {
		if r.System == baseline.CRONUS {
			cronus = r.Recovery
		}
		if r.System == baseline.TrustZone {
			reboot = r.Recovery
		}
	}
	if cronus <= 0 || reboot <= 0 {
		t.Fatal("missing rows")
	}
	if float64(cronus) > float64(reboot)/100 {
		t.Errorf("cronus recovery %v vs reboot %v: not 2+ orders faster", cronus, reboot)
	}
	_ = RenderRecovery(rows)
}

// CRONUS and its baselines run on one device: the GPU and NPU the platform
// boots and the bare ones runCUDA and RunOnNPU build every baseline on have the
// same memory, SM count and MPS mode. The Fig 7, 8 and 10 comparisons are fair
// only while they do.
func TestBaselinesRunOnThePlatformsDevices(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		want, got := pl.GPUs[0].Dev, bareGPU(p.Kernel(), pl.Costs)
		if got.MemBytes() != want.MemBytes() || got.SMs() != want.SMs() || got.MPS() != want.MPS() {
			t.Errorf("baseline GPU has %d B, %v SMs, MPS=%v; CRONUS's has %d B, %v SMs, MPS=%v",
				got.MemBytes(), got.SMs(), got.MPS(), want.MemBytes(), want.SMs(), want.MPS())
		}
		if got, want := bareNPU(p.Kernel(), pl.Costs).MemBytes(), pl.NPUs[0].Dev.MemBytes(); got != want {
			t.Errorf("baseline NPU has %d B, CRONUS's has %d B", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The simulation's determinism claim: running the same experiment twice
// yields bit-identical results (no map-iteration or host-scheduling order
// may leak into virtual-time behaviour).
func TestFailoverExperimentIsDeterministic(t *testing.T) {
	a, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if a.CrashAt != b.CrashAt || a.ReadyAt != b.ReadyAt || a.MOSDowntime != b.MOSDowntime {
		t.Fatalf("timings differ: %+v vs %+v", a, b)
	}
	for i := range a.TaskA {
		if a.TaskA[i] != b.TaskA[i] || a.TaskB[i] != b.TaskB[i] {
			t.Fatalf("bucket %d differs: A %d/%d, B %d/%d", i, a.TaskA[i], b.TaskA[i], a.TaskB[i], b.TaskB[i])
		}
	}
}
