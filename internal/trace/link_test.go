package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"cronus/internal/sim"
	"cronus/internal/trace"
)

// Span/Instant inherit the recording process's span context, so existing
// instrumentation joins the causal tree with no signature changes.
func TestSpanInheritsProcContext(t *testing.T) {
	c := &trace.Collector{}
	k := sim.NewKernel()
	k.Spawn("p", func(p *sim.Proc) {
		p.SetTraceCtx(0xabc, 7)
		end := c.Span(p, "gpu", "gpu0", "launch")
		p.Sleep(10)
		end()
		c.Instant(p, "spm", "part", "beat", nil)
		p.SetTraceCtx(0, 0)
		end = c.Span(p, "gpu", "gpu0", "unlinked")
		p.Sleep(10)
		end()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	evs := c.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].TraceID != 0xabc || evs[0].Parent != 7 || evs[0].SpanID == 0 {
		t.Fatalf("linked span = %+v", evs[0])
	}
	if evs[1].TraceID != 0xabc || evs[1].Parent != 7 || evs[1].SpanID != 0 {
		t.Fatalf("instant = %+v", evs[1])
	}
	if evs[2].TraceID != 0 || evs[2].SpanID != 0 {
		t.Fatalf("unlinked span minted ids: %+v", evs[2])
	}
}

// BeginSpan pushes itself as the current context (nested hooks chain under
// it) and the close restores the previous context.
func TestBeginSpanNesting(t *testing.T) {
	c := &trace.Collector{}
	k := sim.NewKernel()
	k.Spawn("p", func(p *sim.Proc) {
		p.SetTraceCtx(0x1, 100)
		outer := c.BeginSpan(p, "srpc", "s", "outer")
		inner := c.Span(p, "mos", "m", "inner")
		p.Sleep(5)
		inner()
		outer()
		if _, sid := p.TraceCtx(); sid != 100 {
			t.Errorf("context not restored: span=%d", sid)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	evs := c.Events() // inner closes first
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	inner, outer := evs[0], evs[1]
	if outer.Parent != 100 || outer.SpanID == 0 {
		t.Fatalf("outer = %+v", outer)
	}
	if inner.Parent != outer.SpanID || inner.TraceID != 0x1 {
		t.Fatalf("inner %+v does not chain under outer %d", inner, outer.SpanID)
	}
}

// StartSpan roots the context at an explicit SpanCtx — the replica-worker
// entry point — and restores on close.
func TestStartSpanExplicitRoot(t *testing.T) {
	c := &trace.Collector{}
	k := sim.NewKernel()
	k.Spawn("p", func(p *sim.Proc) {
		end := c.StartSpan(p, "serve", "part0", "batch-exec", trace.SpanCtx{Trace: 0x42, Span: 9})
		if tid, _ := p.TraceCtx(); tid != 0x42 {
			t.Errorf("context not pushed: trace=%#x", tid)
		}
		p.Sleep(3)
		end()
		if tid, sid := p.TraceCtx(); tid != 0 || sid != 0 {
			t.Errorf("context not restored: %#x/%d", tid, sid)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	evs := c.Events()
	if len(evs) != 1 || evs[0].TraceID != 0x42 || evs[0].Parent != 9 {
		t.Fatalf("events = %+v", evs)
	}
}

// The flow map carries a span context across an sRPC ring: put by the
// pushing client, taken exactly once by the consuming executor.
func TestFlowPutTake(t *testing.T) {
	c := &trace.Collector{}
	c.PutFlow(3, 14, trace.SpanCtx{Trace: 0x7, Span: 2})
	if _, ok := c.TakeFlow(3, 15); ok {
		t.Fatal("wrong slot claimed a context")
	}
	ctx, ok := c.TakeFlow(3, 14)
	if !ok || ctx.Trace != 0x7 || ctx.Span != 2 {
		t.Fatalf("TakeFlow = %+v, %v", ctx, ok)
	}
	if _, ok := c.TakeFlow(3, 14); ok {
		t.Fatal("context claimed twice")
	}
}

// NextSpanID mints a deterministic sequence of the collector's own: a second
// collector (another kernel's) starts at 1 however far the first has gone.
func TestNextSpanIDPerCollector(t *testing.T) {
	a, b := &trace.Collector{}, &trace.Collector{}
	if x, y := a.NextSpanID(), a.NextSpanID(); x != 1 || y != 2 {
		t.Fatalf("sequence = %d, %d", x, y)
	}
	if got := b.NextSpanID(); got != 1 {
		t.Fatalf("second collector's first id = %d, want 1", got)
	}
}

// The tap observes every event — including those dropped at the storage cap,
// which is when a bounded flight recorder matters most.
func TestTapSeesDroppedEvents(t *testing.T) {
	c := &trace.Collector{}
	c.SetMaxEvents(2)
	var seen int
	c.SetTap(func(trace.Event) { seen++ })
	for i := 0; i < 5; i++ {
		c.InstantAt(sim.Time(i), "x", "t", "e", nil)
	}
	if c.Len() != 2 || c.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d", c.Len(), c.Dropped())
	}
	if seen != 5 {
		t.Fatalf("tap saw %d of 5 events", seen)
	}
}

// Causal ids travel into the Chrome export as args, hex trace id included.
func TestChromeExportCarriesLinkage(t *testing.T) {
	c := &trace.Collector{}
	c.SpanAtLinked(10, 20, "serve", "req:tenant-0", "request resnet18", 0xbeef, 3, 0)
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"trace":"0xbeef"`, `"span":"3"`} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s:\n%s", want, out)
		}
	}
}
