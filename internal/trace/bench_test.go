package trace_test

import (
	"testing"

	"cronus/internal/sim"
	"cronus/internal/trace"
)

// benchProc returns a spawned-but-never-run process: enough for the hooks,
// which only read its current time.
func benchProc() *sim.Proc {
	k := sim.NewKernel()
	return k.Spawn("bench", func(*sim.Proc) {})
}

// TestDisabledHooksDoNotAllocate is the disabled-path cost contract for trace
// hooks: one atomic load, one branch, zero allocations. Causal linkage must
// not weaken it: with a span context threaded through the process, the hooks
// still allocate nothing while the collector is off.
func TestDisabledHooksDoNotAllocate(t *testing.T) {
	c := &trace.Collector{}
	p, pc := benchProc(), benchProc()
	pc.SetTraceCtx(0xdeadbeef, 42)
	hooks := []struct {
		name string
		fn   func()
	}{
		{"Instant", func() { c.Instant(p, "cat", "track", "name", nil) }},
		{"Span", func() { c.Span(p, "cat", "track", "name")() }},
		{"InstantAt", func() { c.InstantAt(42, "cat", "track", "name", nil) }},
		{"Span+ctx", func() { c.Span(pc, "cat", "track", "name")() }},
		{"BeginSpan+ctx", func() { c.BeginSpan(pc, "cat", "track", "name")() }},
		{"StartSpan+ctx", func() {
			c.StartSpan(pc, "cat", "track", "name", trace.SpanCtx{Trace: 1, Span: 2})()
		}},
		{"SpanAtLinked", func() { c.SpanAtLinked(1, 2, "cat", "track", "name", 1, 2, 3) }},
	}
	for _, h := range hooks {
		if n := testing.AllocsPerRun(100, h.fn); n != 0 {
			t.Errorf("%s allocated %.1f objects per op when disabled", h.name, n)
		}
	}
}

func BenchmarkDisabledInstant(b *testing.B) {
	c := &trace.Collector{}
	p := benchProc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Instant(p, "cat", "track", "name", nil)
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	c := &trace.Collector{}
	p := benchProc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Span(p, "cat", "track", "name")()
	}
}

func BenchmarkDisabledSpanWithCtx(b *testing.B) {
	c := &trace.Collector{}
	p := benchProc()
	p.SetTraceCtx(0xdeadbeef, 42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Span(p, "cat", "track", "name")()
	}
}

func BenchmarkDisabledInstantAt(b *testing.B) {
	c := &trace.Collector{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.InstantAt(42, "cat", "track", "name", nil)
	}
}
