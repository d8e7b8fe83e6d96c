package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestDisabledRegistryRecordsNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	c.Add(5)
	g.Set(7)
	h.Observe(9)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled registry recorded values: c=%d g=%d h=%d", c.Value(), g.Value(), h.Count())
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	r.Enable()
	c := r.Counter("srpc.calls")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("queue.depth")
	g.Set(3)
	g.Set(9)
	g.Set(2)
	if g.Value() != 2 || g.Max() != 9 {
		t.Fatalf("gauge value=%d max=%d", g.Value(), g.Max())
	}

	h := r.Histogram("lat_ns")
	for _, v := range []int64{1, 2, 3, 700, 700, 1 << 40} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hv := s.Histograms["lat_ns"]
	if hv.Count != 6 {
		t.Fatalf("hist count = %d", hv.Count)
	}
	if hv.Min != 1 || hv.Max != 1<<40 {
		t.Fatalf("hist min=%d max=%d", hv.Min, hv.Max)
	}
	// 700 has bit length 10, so both samples land in the le=1023 bucket.
	found := false
	for _, b := range hv.Buckets {
		if b.Le == 1023 && b.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing le=1023 bucket with 2 samples: %+v", hv.Buckets)
	}
}

func TestResetKeepsHandles(t *testing.T) {
	r := NewRegistry()
	r.Enable()
	c := r.Counter("c")
	h := r.Histogram("h")
	c.Inc()
	h.Observe(10)
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatal("Reset did not zero values")
	}
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("handle dead after Reset")
	}
	s := r.Snapshot()
	if _, ok := s.Histograms["h"]; !ok {
		t.Fatal("histogram registration lost by Reset")
	}
}

func TestSameNameReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("x") != r.Histogram("x") {
		t.Fatal("Histogram not idempotent")
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Enable()
	for _, n := range []string{"z.last", "a.first", "m.middle"} {
		r.Counter(n).Add(3)
	}
	r.Histogram("h_ns").Observe(12345)
	r.Gauge("g").Set(-4)
	var b1, b2 bytes.Buffer
	if err := r.Snapshot().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two snapshots of the same state serialize differently")
	}
	var parsed map[string]any
	if err := json.Unmarshal(b1.Bytes(), &parsed); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	// Empty histograms must still appear (the failover histogram contract).
	r2 := NewRegistry()
	r2.Histogram("spm.failover.latency_ns")
	var b3 bytes.Buffer
	if err := r2.Snapshot().WriteJSON(&b3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b3.String(), "spm.failover.latency_ns") {
		t.Fatal("empty histogram missing from snapshot JSON")
	}
}

func TestCounterDelta(t *testing.T) {
	r := NewRegistry()
	r.Enable()
	c := r.Counter("c")
	c.Add(2)
	before := r.Snapshot()
	c.Add(5)
	after := r.Snapshot()
	if d := after.CounterDelta(before, "c"); d != 5 {
		t.Fatalf("delta = %d, want 5", d)
	}
	if d := after.CounterDelta(nil, "c"); d != 7 {
		t.Fatalf("delta vs nil = %d, want 7", d)
	}
}

func TestTableRendering(t *testing.T) {
	r := NewRegistry()
	r.Enable()
	r.Counter("spm.world_switches").Add(10)
	r.Histogram("spm.failover.latency_ns") // empty on purpose
	out := r.Snapshot().String()
	if !strings.Contains(out, "spm.world_switches") {
		t.Errorf("table missing counter:\n%s", out)
	}
	if !strings.Contains(out, "no samples") {
		t.Errorf("table missing empty histogram:\n%s", out)
	}
	// A name ending in _ns renders its mean, min and max as durations; any
	// other histogram as plain numbers.
	r.Histogram("srpc.call_ns").Observe(1500)
	r.Histogram("srpc.call_ns").Observe(2500)
	r.Histogram("serve.batch").Observe(2)
	r.Histogram("serve.batch").Observe(4)
	out = r.Snapshot().String()
	for _, want := range []string{"n=2 mean=2.00us min=1.50us max=2.50us", "n=2 mean=3.0 min=2 max=4"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFmtNS(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{999, "999ns"},
		{1500, "1.50us"},
		{2.5e6, "2.50ms"},
		{5e9, "5.00s"},
	} {
		if got := fmtNS(tc.v); got != tc.want {
			t.Errorf("fmtNS(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestHistMeanAndSummary(t *testing.T) {
	r := NewRegistry()
	r.Enable()
	r.Counter("active").Inc()
	r.Counter("idle")
	r.Gauge("depth").Set(3)
	h := r.Histogram("lat_ns")
	s := r.Snapshot()
	if m := s.Histograms["lat_ns"].Mean(); m != 0 {
		t.Errorf("empty histogram mean = %v, want 0", m)
	}
	for _, v := range []int64{10, 20, 60} {
		h.Observe(v)
	}
	s = r.Snapshot()
	if m := s.Histograms["lat_ns"].Mean(); m != 30 {
		t.Errorf("mean = %v, want 30", m)
	}
	if got, want := s.Summary(), "4 metrics (1 counters active, 3 histogram samples)"; got != want {
		t.Errorf("Summary() = %q, want %q", got, want)
	}
}

// The disabled-path cost contract: hooks must not allocate when the registry
// is off. Guarded both by a hard assertion and by -benchmem visibility.

func assertZeroAllocs(tb testing.TB, name string, fn func()) {
	tb.Helper()
	if n := testing.AllocsPerRun(100, fn); n != 0 {
		tb.Fatalf("%s allocated %.1f bytes-worth of objects per op when disabled", name, n)
	}
}

func BenchmarkDisabledCounter(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.counter")
	assertZeroAllocs(b, "Counter.Add", func() { c.Add(3) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkDisabledGauge(b *testing.B) {
	r := NewRegistry()
	g := r.Gauge("bench.gauge")
	assertZeroAllocs(b, "Gauge.Set", func() { g.Set(42) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

func BenchmarkDisabledHistogram(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench.hist_ns")
	assertZeroAllocs(b, "Histogram.Observe", func() { h.Observe(1234) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkEnabledCounter(b *testing.B) {
	r := NewRegistry()
	r.Enable()
	c := r.Counter("bench.counter")
	assertZeroAllocs(b, "enabled Counter.Add", func() { c.Add(3) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
