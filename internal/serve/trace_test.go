package serve_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"cronus/internal/otrace"
	"cronus/internal/serve"
	"cronus/internal/sim"
	"cronus/internal/slo"
)

// tracedConfig is the shared base load with causal tracing armed.
func tracedConfig(seed int64) serve.Config {
	cfg := twoTenantConfig(seed)
	cfg.Trace = true
	return cfg
}

// Every request trace must satisfy the conservative-attribution contract:
// segments contiguous over [Arrived, Done], durations summing exactly to the
// end-to-end latency — on clean runs and across failover.
func TestTraceAttributionConservative(t *testing.T) {
	for name, mod := range map[string]func(*serve.Config){
		"clean":    func(*serve.Config) {},
		"failover": func(cfg *serve.Config) { cfg.FailAt = 4 * sim.Millisecond },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := tracedConfig(3)
			mod(&cfg)
			res, err := serve.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkAccounting(t, res)
			var completed uint64
			for _, tr := range res.Tenants {
				completed += tr.Completed + tr.Failed
			}
			if uint64(len(res.Traces)) != completed {
				t.Fatalf("traces = %d, completions = %d", len(res.Traces), completed)
			}
			ids := make(map[uint64]bool, len(res.Traces))
			for i := range res.Traces {
				rt := &res.Traces[i]
				if err := rt.Validate(); err != nil {
					t.Fatal(err)
				}
				if rt.TraceID == 0 || ids[rt.TraceID] {
					t.Fatalf("trace id %#x zero or duplicated", rt.TraceID)
				}
				ids[rt.TraceID] = true
			}
			// The attribution analyzer preserves the conservation: stage
			// totals sum to the tenant's total latency exactly.
			for _, ta := range otrace.Attribute(res.Traces).Tenants {
				var sum sim.Duration
				for _, st := range ta.Stages {
					sum += st.Total
				}
				if sum != ta.TotalLatency {
					t.Errorf("%s: stage totals %v != total latency %v", ta.Tenant, sum, ta.TotalLatency)
				}
			}
		})
	}
}

// Two identical seeded runs must export byte-identical Chrome trace JSON —
// the determinism contract cronus-serve -trace relies on.
func TestTraceExportByteIdentical(t *testing.T) {
	a, b := tracedExport(t, 7), tracedExport(t, 7)
	if len(a) == 0 {
		t.Fatal("empty export")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical seeded runs exported different traces")
	}
	// The export carries linked request spans and the execution spine.
	for _, want := range []string{"req:alpha", "request resnet18", "batch-exec", `"trace":"0x`, "dispatch cuLaunchKernel"} {
		if !bytes.Contains(a, []byte(want)) {
			t.Errorf("export missing %q", want)
		}
	}
}

// Each traced run records into the collector attached to its own kernel, so
// two of them on two goroutines at once export exactly what a solo run does:
// no event, span id or flow context crosses from one run into the other.
func TestTracedRunsSideBySide(t *testing.T) {
	solo := tracedExport(t, 7)
	var side [2][]byte
	var wg sync.WaitGroup
	for i := range side {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := serve.Run(tracedConfig(7))
			if err != nil {
				t.Error(err)
				return
			}
			var buf bytes.Buffer
			if err := res.Spans.WriteChromeTrace(&buf); err != nil {
				t.Error(err)
			}
			side[i] = buf.Bytes()
		}()
	}
	wg.Wait()
	for i, got := range side {
		if !bytes.Equal(got, solo) {
			t.Errorf("run %d of two side by side exported %d bytes that differ from the solo run's %d", i, len(got), len(solo))
		}
	}
}

// tracedExport runs tracedConfig(seed) and returns the Chrome export of the
// collector serve.Run attached to the run's kernel.
func tracedExport(t *testing.T, seed int64) []byte {
	t.Helper()
	res, err := serve.Run(tracedConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	if res.Spans == nil {
		t.Fatal("a Config.Trace run returned no collector")
	}
	var buf bytes.Buffer
	if err := res.Spans.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// SLO accounting must balance: good + bad == completed + failed, and the
// burn-rate report rows are present in the text report.
func TestSLOAccountingBalances(t *testing.T) {
	cfg := tracedConfig(9)
	cfg.SLO = &slo.Objective{
		LatencyTarget: 300 * sim.Microsecond,
		ErrorBudget:   0.05,
	}
	res, err := serve.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SLOs) != len(res.Tenants) {
		t.Fatalf("slo rows = %d, tenants = %d", len(res.SLOs), len(res.Tenants))
	}
	for i, s := range res.SLOs {
		tr := &res.Tenants[i]
		if s.Name != tr.Name {
			t.Fatalf("slo row %d is %s, tenant is %s", i, s.Name, tr.Name)
		}
		if s.Good+s.Bad != tr.Completed+tr.Failed {
			t.Errorf("%s: good %d + bad %d != completions %d",
				s.Name, s.Good, s.Bad, tr.Completed+tr.Failed)
		}
	}
	if !strings.Contains(res.Report(), "slo: ") {
		t.Fatalf("report missing slo rows:\n%s", res.Report())
	}
}

// SLOAdmission tightens the cap while the burn-rate signal fires: under an
// impossible latency target every completion is bad, the signal fires, and
// the degraded run sheds more than the same run without the coupling.
func TestSLOAdmissionDegrades(t *testing.T) {
	run := func(admission bool) *serve.Result {
		cfg := twoTenantConfig(11)
		// Load heavy enough that the admission cap binds: halving it under
		// a firing signal must change the shed count.
		for i := range cfg.Tenants {
			cfg.Tenants[i].Rate = 20000
			cfg.Tenants[i].QueueCap = 4
		}
		cfg.SLO = &slo.Objective{
			LatencyTarget: sim.Nanosecond, // unmeetable: everything is bad
			ErrorBudget:   0.01,
		}
		cfg.SLOAdmission = admission
		res, err := serve.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkAccounting(t, res)
		return res
	}
	base, degraded := run(false), run(true)
	var baseShed, degradedShed uint64
	for i := range base.Tenants {
		baseShed += base.Tenants[i].Shed
		degradedShed += degraded.Tenants[i].Shed
	}
	if degradedShed <= baseShed {
		t.Fatalf("slo admission did not tighten: shed %d (coupled) vs %d (uncoupled)",
			degradedShed, baseShed)
	}
	for _, s := range degraded.SLOs {
		if !s.Firing {
			t.Errorf("%s: burn-rate signal not firing under unmeetable target", s.Name)
		}
	}
}
