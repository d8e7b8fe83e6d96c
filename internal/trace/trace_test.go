package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/trace"
)

// A kernel carries no collector until one is attached: Of reads nil and the
// hooks, reached through it, record nothing; once attached, the kernel's own
// scheduler instants land in the collector too.
func TestCollectorDisabledByDefault(t *testing.T) {
	k := sim.NewKernel()
	if c := trace.Of(k); c != nil {
		t.Fatalf("a fresh kernel carries collector %p", c)
	}
	hooks := func(p *sim.Proc) {
		c := trace.Of(p.Kernel())
		c.Instant(p, "x", "t", "e", nil)
		end := c.Span(p, "x", "t", "s")
		p.Sleep(10)
		end()
	}
	k.Spawn("p", hooks)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	c := &trace.Collector{}
	k = sim.NewKernel()
	trace.Attach(k, c)
	if trace.Of(k) != c {
		t.Fatal("Of does not return the attached collector")
	}
	k.Spawn("p", hooks)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	evs := c.Events()
	if len(evs) != 3 || evs[0].Name != "spawn p" || evs[0].Track != "scheduler" {
		t.Fatalf("attached collector recorded %+v, want the spawn instant, the instant and the span", evs)
	}
}

func TestSpanAndChromeOutput(t *testing.T) {
	c := &trace.Collector{}
	k := sim.NewKernel()
	k.Spawn("p", func(p *sim.Proc) {
		end := c.Span(p, "gpu", "gpu0", "matmul")
		p.Sleep(1000)
		end()
		c.Instant(p, "spm", "gpu-part", "partition-failed", map[string]string{"reason": "panic"})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("events = %d", c.Len())
	}
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 2 thread_name metadata + 2 events.
	if len(parsed) != 4 {
		t.Fatalf("chrome events = %d", len(parsed))
	}
	if !strings.Contains(c.Summary(), "gpu=1") {
		t.Errorf("summary %q", c.Summary())
	}
}

func TestMaxEventsCap(t *testing.T) {
	c := &trace.Collector{}
	c.SetMaxEvents(3)
	for i := 0; i < 5; i++ {
		c.InstantAt(sim.Time(i), "x", "t", "e", nil)
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3 (capped)", c.Len())
	}
	if c.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", c.Dropped())
	}
	if !strings.Contains(c.Summary(), "dropped") {
		t.Errorf("summary does not report drops: %q", c.Summary())
	}
}

func TestEventsAccessor(t *testing.T) {
	c := &trace.Collector{}
	c.InstantAt(10, "spm", "part", "first", nil)
	c.SpanAt(20, 50, "spm", "part", "second", nil)
	evs := c.Events()
	if len(evs) != 2 || evs[0].Name != "first" || evs[1].Name != "second" {
		t.Fatalf("events = %+v", evs)
	}
	if evs[1].Start != 20 || evs[1].Dur != 30 {
		t.Fatalf("span event = %+v", evs[1])
	}
}

// End-to-end: a traced platform run captures GPU launches, sync waits and
// the failure/recovery instants.
func TestHooksCaptureArchitecturalEvents(t *testing.T) {
	c := &trace.Collector{}
	err := sim.Run(func(p *sim.Proc) error {
		trace.Attach(p.Kernel(), c)
		pl, err := core.BuildPlatform(p, core.DefaultConfig())
		if err != nil {
			return err
		}
		s, err := pl.NewSession(p, "traced")
		if err != nil {
			return err
		}
		g, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add")})
		if err != nil {
			return err
		}
		a, _ := g.MemAlloc(p, 64)
		b, _ := g.MemAlloc(p, 64)
		cc, _ := g.MemAlloc(p, 64)
		if err := g.Launch(p, "vec_add", gpu.Dim{16, 1, 1}, a, b, cc); err != nil {
			return err
		}
		if err := g.Sync(p); err != nil {
			return err
		}
		pl.SPM.Fail(pl.GPUs[0].Part, spm.FailPanic)
		pl.SPM.AwaitReady(p, pl.GPUs[0].Part)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"partition-created", "vec_add", "sync-wait", "partition-failed", "partition-ready"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
}
