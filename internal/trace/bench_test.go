package trace_test

import (
	"testing"

	"cronus/internal/sim"
	"cronus/internal/trace"
)

// benchProc returns a spawned-but-never-run process on a kernel with no
// collector attached: enough for the hooks, which only read its current time.
func benchProc() *sim.Proc {
	k := sim.NewKernel()
	return k.Spawn("bench", func(*sim.Proc) {})
}

// TestDisabledHooksDoNotAllocate is the untraced-path cost contract for trace
// hooks: each reaches the collector through the kernel it holds, finds none,
// and allocates nothing. Causal linkage must not weaken it: with a span
// context threaded through the process, the hooks still allocate nothing on
// an untraced kernel.
func TestDisabledHooksDoNotAllocate(t *testing.T) {
	p, pc := benchProc(), benchProc()
	pc.SetTraceCtx(0xdeadbeef, 42)
	hooks := []struct {
		name string
		fn   func()
	}{
		{"Instant", func() { trace.Of(p.Kernel()).Instant(p, "cat", "track", "name", nil) }},
		{"Span", func() { trace.Of(p.Kernel()).Span(p, "cat", "track", "name")() }},
		{"InstantAt", func() { trace.Of(p.Kernel()).InstantAt(42, "cat", "track", "name", nil) }},
		{"Span+ctx", func() { trace.Of(pc.Kernel()).Span(pc, "cat", "track", "name")() }},
		{"BeginSpan+ctx", func() { trace.Of(pc.Kernel()).BeginSpan(pc, "cat", "track", "name")() }},
		{"StartSpan+ctx", func() {
			trace.Of(pc.Kernel()).StartSpan(pc, "cat", "track", "name", trace.SpanCtx{Trace: 1, Span: 2})()
		}},
		{"SpanAt", func() { trace.Of(p.Kernel()).SpanAt(1, 2, "cat", "track", "name", nil) }},
		{"SpanAtLinked", func() { trace.Of(p.Kernel()).SpanAtLinked(1, 2, "cat", "track", "name", 1, 2, 3) }},
		{"SchedInstant", func() { trace.Of(p.Kernel()).SchedInstant(42, "spawn", "name") }},
	}
	for _, h := range hooks {
		if n := testing.AllocsPerRun(100, h.fn); n != 0 {
			t.Errorf("%s allocated %.1f objects per op on an untraced kernel", h.name, n)
		}
	}
}

func BenchmarkDisabledInstant(b *testing.B) {
	p := benchProc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trace.Of(p.Kernel()).Instant(p, "cat", "track", "name", nil)
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	p := benchProc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trace.Of(p.Kernel()).Span(p, "cat", "track", "name")()
	}
}

func BenchmarkDisabledSpanWithCtx(b *testing.B) {
	p := benchProc()
	p.SetTraceCtx(0xdeadbeef, 42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trace.Of(p.Kernel()).Span(p, "cat", "track", "name")()
	}
}

func BenchmarkDisabledInstantAt(b *testing.B) {
	p := benchProc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trace.Of(p.Kernel()).InstantAt(42, "cat", "track", "name", nil)
	}
}
