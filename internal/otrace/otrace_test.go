package otrace

import (
	"strings"
	"testing"

	"cronus/internal/sim"
	"cronus/internal/trace"
)

func TestDeriveTraceID(t *testing.T) {
	a := DeriveTraceID("tenant-0", 1)
	if a == 0 {
		t.Fatal("trace id 0 is reserved for untraced")
	}
	if b := DeriveTraceID("tenant-0", 1); b != a {
		t.Fatalf("not deterministic: %#x vs %#x", a, b)
	}
	if b := DeriveTraceID("tenant-0", 2); b == a {
		t.Fatal("adjacent sequence numbers collided")
	}
	if b := DeriveTraceID("tenant-1", 1); b == a {
		t.Fatal("distinct tenants collided")
	}
}

func TestSegmentsFromMarksNoMarks(t *testing.T) {
	segs := SegmentsFromMarks(100, 250, nil)
	if len(segs) != 1 || segs[0].Stage != StageQueue || segs[0].From != 100 || segs[0].To != 250 {
		t.Fatalf("segs = %+v", segs)
	}
}

func TestSegmentsFromMarksFullPath(t *testing.T) {
	marks := []Mark{
		{StageBatch, 120},
		{StageReplica, 130},
		{StageExec, 150},
		{StageBackoff, 180},
		{StageExec, 200},
	}
	rt := RequestTrace{TraceID: 1, Arrived: 100, Done: 260,
		Segments: SegmentsFromMarks(100, 260, marks)}
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []Segment{
		{StageQueue, 100, 120},
		{StageBatch, 120, 130},
		{StageReplica, 130, 150},
		{StageExec, 150, 180},
		{StageBackoff, 180, 200},
		{StageExec, 200, 260},
	}
	if len(rt.Segments) != len(want) {
		t.Fatalf("segments = %+v", rt.Segments)
	}
	for i, s := range rt.Segments {
		if s != want[i] {
			t.Errorf("segment %d = %+v, want %+v", i, s, want[i])
		}
	}
}

func TestSegmentsFromMarksMergeAndDrop(t *testing.T) {
	// Two marks at the same instant: the zero-length slice drops; two
	// adjacent slices of the same stage merge.
	marks := []Mark{
		{StageBatch, 120},
		{StageExec, 120},  // batch slice is zero-length -> dropped
		{StageExec, 140},  // same stage, contiguous -> merged
		{StageQueue, 160}, // requeue-style return to queue survives
	}
	rt := RequestTrace{TraceID: 2, Arrived: 100, Done: 200,
		Segments: SegmentsFromMarks(100, 200, marks)}
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []Segment{
		{StageQueue, 100, 120},
		{StageExec, 120, 160},
		{StageQueue, 160, 200},
	}
	if len(rt.Segments) != len(want) {
		t.Fatalf("segments = %+v", rt.Segments)
	}
	for i, s := range rt.Segments {
		if s != want[i] {
			t.Errorf("segment %d = %+v, want %+v", i, s, want[i])
		}
	}
}

func TestSegmentsFromMarksZeroLatency(t *testing.T) {
	rt := RequestTrace{TraceID: 3, Arrived: 50, Done: 50,
		Segments: SegmentsFromMarks(50, 50, []Mark{{StageBatch, 50}})}
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsGaps(t *testing.T) {
	rt := RequestTrace{TraceID: 4, Arrived: 0, Done: 30, Segments: []Segment{
		{StageQueue, 0, 10},
		{StageExec, 15, 30}, // gap 10..15
	}}
	if err := rt.Validate(); err == nil {
		t.Fatal("gap not detected")
	}
	rt.Segments = []Segment{{StageQueue, 0, 20}}
	if err := rt.Validate(); err == nil {
		t.Fatal("short coverage not detected")
	}
}

// sample builds a deterministic two-tenant trace set for analyzer tests.
func sample() []RequestTrace {
	mk := func(tenant string, seq uint64, arrived, done sim.Time, marks ...Mark) RequestTrace {
		return RequestTrace{
			TraceID: DeriveTraceID(tenant, seq), Tenant: tenant, Class: "c",
			Arrived: arrived, Done: done,
			Segments: SegmentsFromMarks(arrived, done, marks),
		}
	}
	return []RequestTrace{
		mk("b", 1, 0, 100, Mark{StageExec, 40}),
		mk("a", 1, 0, 10, Mark{StageExec, 2}),
		mk("a", 2, 5, 45, Mark{StageBatch, 10}, Mark{StageExec, 15}),
		mk("a", 3, 9, 1009, Mark{StageExec, 19}), // the outlier: execute-dominated
	}
}

func TestAttributeConservation(t *testing.T) {
	a := Attribute(sample())
	if len(a.Tenants) != 2 || a.Tenants[0].Tenant != "a" || a.Tenants[1].Tenant != "b" {
		t.Fatalf("tenants = %+v", a.Tenants)
	}
	for _, ta := range a.Tenants {
		var sum sim.Duration
		for _, st := range ta.Stages {
			sum += st.Total
		}
		if sum != ta.TotalLatency {
			t.Errorf("%s: stage totals %v != latency %v", ta.Tenant, sum, ta.TotalLatency)
		}
	}
	// Input order must not matter.
	rev := sample()
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if Attribute(rev).Table() != a.Table() {
		t.Fatal("attribution depends on input order")
	}
}

func TestOutliers(t *testing.T) {
	a := Attribute(sample())
	outs := a.Outliers(0.99, 2)
	if len(outs) != 2 {
		t.Fatalf("outliers = %+v", outs)
	}
	oa := outs[0]
	if oa.Tenant != "a" || len(oa.Exemplars) == 0 {
		t.Fatalf("tenant a outliers = %+v", oa)
	}
	top := oa.Exemplars[0]
	if top.TraceID != DeriveTraceID("a", 3) || top.Latency != 1000 {
		t.Fatalf("top exemplar = %+v", top)
	}
	if top.TopStage != StageExec || top.TopShare < 0.9 {
		t.Fatalf("dominant stage = %+v", top)
	}
	if !strings.Contains(OutlierReport(outs), "dominant execute") {
		t.Fatalf("report:\n%s", OutlierReport(outs))
	}
}

func TestFlightRecorderRingAndAutoDump(t *testing.T) {
	c := &trace.Collector{}
	fr := NewFlightRecorder(3)
	fr.Attach(c)
	for i := 0; i < 5; i++ {
		c.InstantAt(sim.Time(i), "mos", "part0", "dispatch", nil)
	}
	c.InstantAt(99, "spm", "part0", "partition-quarantined", nil)
	dumps := fr.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("dumps = %d", len(dumps))
	}
	d := dumps[0]
	if d.Track != "part0" || d.Reason != "partition-quarantined" || d.At != 99 {
		t.Fatalf("dump = %+v", d)
	}
	// Ring cap 3: the two oldest dispatches were evicted; the dump holds
	// the last two dispatches plus the quarantine event itself.
	if len(d.Events) != 3 || d.Events[0].Start != 3 || d.Events[2].Name != "partition-quarantined" {
		t.Fatalf("dump events = %+v", d.Events)
	}
	if !strings.Contains(d.String(), "flight dump [part0]") {
		t.Fatalf("render:\n%s", d)
	}
}

func TestFlightRecorderDumpAllSorted(t *testing.T) {
	c := &trace.Collector{}
	fr := NewFlightRecorder(0)
	fr.Attach(c)
	c.InstantAt(1, "mos", "zeta", "e", nil)
	c.InstantAt(2, "mos", "alpha", "e", nil)
	dumps := fr.DumpAll("invariant-violation", 50)
	if len(dumps) != 2 || dumps[0].Track != "alpha" || dumps[1].Track != "zeta" {
		t.Fatalf("dumps = %+v", dumps)
	}
	if got := len(fr.Dumps()); got != 2 {
		t.Fatalf("recorded dumps = %d", got)
	}
}
