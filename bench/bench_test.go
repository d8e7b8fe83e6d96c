package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1) // 1..1000
	}
	for _, c := range []struct {
		q      float64
		want   int64
		beyond int
	}{
		{0.50, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1.0, 1000, 0},
		{0.0, 1, 999},
	} {
		v, beyond := quantile(xs, c.q)
		if v != c.want || beyond != c.beyond {
			t.Errorf("quantile(1..1000, %v) = %d with %d beyond; want %d with %d", c.q, v, beyond, c.want, c.beyond)
		}
	}
	if v, beyond := quantile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("empty sample: got %d, %d", v, beyond)
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(i)
		}
		return xs
	}
	// 1000 samples leave exactly ten beyond p99; 999 leave nine.
	if _, beyond, ok := tailQuantile(mk(1000), 0.99); !ok || beyond != 10 {
		t.Errorf("1000 samples: beyond %d ok %v; want 10, true", beyond, ok)
	}
	if _, beyond, ok := tailQuantile(mk(999), 0.99); ok || beyond != 9 {
		t.Errorf("999 samples: beyond %d ok %v; want 9, false", beyond, ok)
	}
	if _, _, ok := tailQuantile(mk(50), 0.5); !ok {
		t.Error("the median of 50 samples has 25 beyond it and must be supported")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5}, // Python extrapolates past two points
		{[]float64{5, 5, 5}, 5, 5, 5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v; want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v; want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSearchCapacityOnMonotoneOracle(t *testing.T) {
	for _, knee := range []float64{20000, 31000, 125847, 201523.4, 999999} {
		var probed []float64
		got, probes := searchCapacity(func(rate float64) bool {
			probed = append(probed, rate)
			return rate <= knee
		})
		if got > knee || (knee-got)/got > bisectTol {
			t.Errorf("knee %v: capacity %v is not within %v below it", knee, got, bisectTol)
		}
		if probes != len(probed) {
			t.Errorf("knee %v: reported %d probes, made %d", knee, probes, len(probed))
		}
		// The climb is the fixed ladder, rung by rung.
		for k := 0; k < len(probed) && probed[k] <= knee; k++ {
			if probed[k] != ladderRate(k) {
				t.Errorf("knee %v: probe %d at %v; want ladder rung %v", knee, k, probed[k], ladderRate(k))
			}
		}
	}
	if got, probes := searchCapacity(func(float64) bool { return false }); got != 0 || probes != 1 {
		t.Errorf("nothing sustained: capacity %v after %d probes; want 0 after 1", got, probes)
	}
	if got, probes := searchCapacity(func(float64) bool { return true }); got != ladderRate(ladderMaxRungs-1) || probes != ladderMaxRungs {
		t.Errorf("never saturates: capacity %v after %d probes", got, probes)
	}
	if r := ladderRate(4); math.Abs(r-2*ladderBase) > 1e-6 {
		t.Errorf("four rungs must double the rate: %v", r)
	}
}

func TestRecoveryFromRequestList(t *testing.T) {
	const fault = 1000
	reqs := []reqTimes{
		{arrived: 100, done: 900},   // finished before the fault
		{arrived: 900, done: 1000},  // completes at the fault instant: in flight
		{arrived: 950, done: 1400},  // in flight, replayed
		{arrived: 999, done: 1250},  // in flight
		{arrived: 1000, done: 5000}, // arrived at the fault: not in flight
		{arrived: 1200, done: 9000}, // arrived after
	}
	ns, inflight := recoveryNS(reqs, fault)
	if ns != 400 || inflight != 3 {
		t.Errorf("recovery %d over %d in flight; want 400 over 3", ns, inflight)
	}
	if ns, inflight := recoveryNS(reqs[:1], fault); ns != 0 || inflight != 0 {
		t.Errorf("nothing in flight: got %d over %d", ns, inflight)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "boot", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "serve", Start: 25, End: 60}, // overlaps boot by 5
		{ID: 3, Parent: 2, Name: "inner", Start: 30, End: 50},
		{ID: 4, Parent: 0, Name: "late", Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int]int64{
		0: 100 - (20 + 30 + 10), // children cover [10,60) and [90,100)
		1: 20,
		2: 35 - 20,
		3: 20,
		4: 30,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v; want %v", self, want)
	}
}

func TestTracerNestsAndNilIsInert(t *testing.T) {
	var off *tracer
	off.begin("x")
	if d := off.end(); d != nil {
		t.Errorf("nil tracer returned deltas %v", d)
	}
	if err := off.in("x", func() error { return nil }); err != nil {
		t.Error(err)
	}
	if path, err := off.flush(t.TempDir(), 1); path != "" || err != nil {
		t.Errorf("nil tracer flushed %q, %v", path, err)
	}

	tr := newTracer("w")
	tr.begin("outer")
	tr.begin("inner")
	tr.end()
	tr.end()
	tr.begin("next")
	tr.end()
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[2].Parent != -1 {
		t.Fatalf("span tree wrong: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start || s.Workload != "w" {
			t.Errorf("span %+v", s)
		}
	}
	path, err := tr.flush(t.TempDir(), 7)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file spanFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.Workload != "w" || file.Seed != 7 || len(file.Spans) != 3 || len(file.ByName) != 3 {
		t.Errorf("flushed file: %+v", file)
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	if !reflect.DeepEqual(srpcTrace(17, 1), srpcTrace(17, 1)) {
		t.Error("srpc trace differs between two derivations from one seed")
	}
	if reflect.DeepEqual(srpcTrace(17, 1), srpcTrace(23, 1)) {
		t.Error("srpc trace does not depend on the seed")
	}
	for _, ph := range srpcTrace(17, 1) {
		for _, sz := range ph.sizes {
			if sz <= ph.base-ph.base/8 || sz > ph.base {
				t.Fatalf("%s: size %d outside the upper eighth of %d", ph.shape, sz, ph.base)
			}
		}
	}
	if paperInputsFor(17) != paperInputsFor(17) || paperInputsFor(17) == paperInputsFor(23) {
		t.Error("paper inputs must be a function of the seed, and vary with it")
	}
	a, b := serveExec.config(17, 1000, probeWindow), serveExec.config(17, 1000, probeWindow)
	if !reflect.DeepEqual(a.Tenants[0].Rate, b.Tenants[0].Rate) || a.Seed != 17 {
		t.Error("serve config not reproducible")
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json and the program's
// declared vocabulary together: same names, units, directions and bounds, in
// the same order, all inside the contract's limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes; the limit is 64 KiB", len(data))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("missing key %q", key)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys; exactly 6 are allowed", len(raw))
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths %v; want [bench]", f.Paths)
	}
	if len(f.Command) == 0 || len(f.Command) > 32 {
		t.Errorf("command has %d strings", len(f.Command))
	}

	seen := make(map[string]bool)
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, program has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		if len(workloads[i].why) > 200 {
			t.Errorf("workload %s: program's why has %d characters", w.Name, len(workloads[i].why))
		}
	}

	if len(f.EndToEnd) != len(endToEnd) || len(f.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics declared, program emits %d (limit 16)", len(f.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range f.EndToEnd {
		unique(m.Name)
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, s)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if s.Clock != clockHost && s.Clock != clockVirtual {
			t.Errorf("%s: clock %q", m.Name, s.Clock)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range f.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end_to_end must include setup_s in s, lower is better")
	}

	if len(f.PerLayer) != len(perLayer) || len(f.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, program emits %d (limit 128)", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		unique(m.Name)
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, s)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if s.Layer == "" || (s.Clock != clockHost && s.Clock != clockVirtual) {
			t.Errorf("%s: layer %q clock %q", m.Name, s.Layer, s.Clock)
		}
	}
}

// TestJSONLineHasContractShape checks the machine-readable line: exactly
// correct/attempted/failed/metrics, every declared metric present with its
// unit, names identical to the printed ones.
func TestJSONLineHasContractShape(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res := &result{Workload: "w", Traced: traced, Attempted: 5, Metrics: make(map[string]float64)}
		for i, s := range specsFor(traced) {
			res.Metrics[s.Name] = float64(i) + 0.5
		}
		line, err := jsonLine(res, false)
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 {
			t.Errorf("traced=%v: keys %v; want exactly correct, attempted, failed, metrics", traced, got)
		}
		var ms map[string]jsonMetric
		if err := json.Unmarshal(got["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		if len(ms) != len(specsFor(traced)) {
			t.Errorf("traced=%v: %d metrics in the line, %d declared", traced, len(ms), len(specsFor(traced)))
		}
		for i, s := range specsFor(traced) {
			if m, ok := ms[s.Name]; !ok || m.Unit != s.Unit || m.Value != float64(i)+0.5 {
				t.Errorf("metric %s: %+v present=%v", s.Name, m, ok)
			}
		}
		res.expect(false, "broken", "on purpose")
		line, _ = jsonLine(res, true)
		var labelled jsonResult
		if err := json.Unmarshal([]byte(line), &labelled); err != nil {
			t.Fatal(err)
		}
		if labelled.Correct || labelled.Workload != "w" || labelled.Traced == nil || *labelled.Traced != traced {
			t.Errorf("labelled line: %+v", labelled)
		}
	}
}

func TestHostMetricsAreMediansOverRepeats(t *testing.T) {
	res := &result{Metrics: make(map[string]float64), Samples: make(map[string][]float64)}
	res.setHostMetrics([]hostSample{
		{ns: 1000, mallocs: 10, bytes: 100, ops: 10},
		{ns: 9000, mallocs: 30, bytes: 900, ops: 10}, // the outlier a median ignores
		{ns: 1200, mallocs: 20, bytes: 200, ops: 10},
		{ops: 0}, // a repeat that completed nothing is not a sample
	})
	if res.Metrics["host_ns_per_op"] != 120 || res.Metrics["host_allocs_per_op"] != 2 || res.Metrics["host_bytes_per_op"] != 20 {
		t.Errorf("host metrics %v", res.Metrics)
	}
	if len(res.Samples["host_ns_per_op"]) != 3 {
		t.Errorf("samples %v", res.Samples)
	}
}

func TestSameMetricsIsBitExact(t *testing.T) {
	tenth, fifth := 0.1, 0.2 // variables: constant arithmetic would be exact
	a := map[string]float64{"x": tenth + fifth, "y": 1}
	if !sameMetrics(a, map[string]float64{"x": tenth + fifth, "y": 1}) {
		t.Error("equal maps reported different")
	}
	if sameMetrics(a, map[string]float64{"x": 0.3, "y": 1}) {
		t.Error("0.1+0.2 and 0.3 differ in the last bit and must not compare equal")
	}
	if sameMetrics(a, map[string]float64{"x": tenth + fifth}) {
		t.Error("a missing metric must differ")
	}
}
