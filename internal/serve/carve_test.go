package serve

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"cronus/internal/metrics"
	"cronus/internal/sim"
	"cronus/internal/tvm"
)

// flowTestConfig is a two-node flow-model pool (two partitions a node) behind
// the attestation gate, with two quiet tenants: the tests below offer the
// load themselves, one submit at a time.
func flowTestConfig(maxBatch int) Config {
	mix := []WorkClass{
		{Name: "resnet50", Graph: tvm.ResNet50()},
		{Name: "resnet18", Graph: tvm.ResNet18()},
	}
	return Config{
		Seed:          31,
		Policy:        DeviceAffinity,
		MaxBatch:      maxBatch,
		BatchWindow:   40 * sim.Microsecond,
		GPUPartitions: 4,
		GPUFlopsPerNs: 400,
		Shards:        4,
		Nodes:         2,
		HashBound:     1.0,
		AttestTickets: true,
		Tenants: []TenantSpec{
			{Name: "alpha", QueueCap: 64, Mix: mix},
			{Name: "beta", QueueCap: 64, Mix: mix},
		},
	}
}

// onPool boots the pool cfg asks for, as Run does, and hands the booted, idle
// server to body on the main proc.
func onPool(tb testing.TB, cfg Config, body func(p *sim.Proc, srv *Server)) {
	tb.Helper()
	err := boot(cfg, func(p *sim.Proc, srv *Server) error {
		body(p, srv)
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// offer submits one request of the tenant's i-th class at the current instant
// and fails the test if admission refuses it.
func offer(tb testing.TB, p *sim.Proc, srv *Server, tn *tenant, class int) *Request {
	tb.Helper()
	r, err := srv.submit(p.Now(), tn, tn.classes[class])
	if err != nil {
		tb.Errorf("submit at %s: %v", sim.Duration(p.Now()), err)
	}
	return r
}

// drain parks p until everything admitted so far has completed.
func drain(p *sim.Proc, srv *Server) {
	for srv.completedTotal < srv.admittedTotal {
		srv.drainCond.Wait(p)
	}
}

// TestStaleWindowTimerSparesNextBatch: a batch closes by fill, the tenant
// opens its next batch before the first one's window timer fires, and the old
// timer must not close the new batch — it carries the batch it was armed for,
// and that batch is no longer the open one.
func TestStaleWindowTimerSparesNextBatch(t *testing.T) {
	onPool(t, flowTestConfig(2), func(p *sim.Proc, srv *Server) {
		tn := srv.tenants[0]
		offer(t, p, srv, tn, 0) // opens A; its timer is due at +40µs
		a := tn.shOpen
		p.Sleep(10 * sim.Microsecond)
		offer(t, p, srv, tn, 0) // fills A
		if a == nil || tn.shOpen != nil {
			t.Fatalf("batch A did not open and close by fill (A=%p, open=%p)", a, tn.shOpen)
		}
		p.Sleep(25 * sim.Microsecond)
		offer(t, p, srv, tn, 0) // +35µs: opens B; its timer is due at +75µs
		b := tn.shOpen
		if b == nil || b == a {
			t.Fatalf("batch B did not open as a batch of its own (A=%p, B=%p)", a, b)
		}
		p.Sleep(6 * sim.Microsecond) // +41µs: A's timer has fired
		if tn.shOpen != b || len(b.reqs) != 1 {
			t.Errorf("A's stale window timer closed B (open=%p, B=%p holding %d)", tn.shOpen, b, len(b.reqs))
		}
		p.Sleep(35 * sim.Microsecond) // +76µs: B's own timer has fired
		if tn.shOpen != nil {
			t.Errorf("B's own window timer did not close it")
		}
		drain(p, srv)
		if tn.completed != 3 || tn.duplicates != 0 {
			t.Errorf("completed %d of 3, %d duplicates", tn.completed, tn.duplicates)
		}
	})
}

// TestCarvedObjectsAreNeverReissued pins what carving promises and pooling
// would not: across several arena chunks no Request and no batch is handed
// out twice, so a second finish of a long-completed request still lands on
// that request's own completion count and is reported as a duplicate.
func TestCarvedObjectsAreNeverReissued(t *testing.T) {
	onPool(t, flowTestConfig(4), func(p *sim.Proc, srv *Server) {
		tn := srv.tenants[0]
		first := offer(t, p, srv, tn, 0)
		drain(p, srv)
		srv.finish(tn, first, p.Now(), nil)
		if tn.duplicates != 1 || tn.completed != 1 {
			t.Fatalf("double finish: %d duplicates, %d completed; want 1 and 1", tn.duplicates, tn.completed)
		}
		reqs := map[*Request]bool{first: true}
		batches := map[*batch]bool{}
		var open *batch
		for i := 0; i < 3*arenaChunk; i++ {
			r := offer(t, p, srv, tn, 0)
			if reqs[r] {
				t.Fatalf("request %d was handed out before", i)
			}
			reqs[r] = true
			if b := tn.shOpen; b != nil && b != open {
				if batches[b] {
					t.Fatalf("the batch opened by request %d was handed out before", i)
				}
				batches[b] = true
			}
			open = tn.shOpen
			if i%32 == 31 {
				drain(p, srv) // stay under the admission bound
			}
		}
		drain(p, srv)
		srv.finish(tn, first, p.Now(), nil)
		if tn.duplicates != 2 || first.completions != 3 {
			t.Errorf("late double finish: %d duplicates, request completed %d times; want 2 and 3",
				tn.duplicates, first.completions)
		}
		if want := uint64(1 + 3*arenaChunk); tn.completed != want {
			t.Errorf("completed %d, want %d", tn.completed, want)
		}
	})
}

// TestCancelInflightReplaysCarvedBatches: the replay primitive re-issues every
// cancelled batch as a fresh carved batch over the same requests — composition
// and FIFO order kept, ahead of what the backlog already held — and the
// cancelled originals' pending events stay no-ops, so each request completes
// exactly once.
func TestCancelInflightReplaysCarvedBatches(t *testing.T) {
	onPool(t, flowTestConfig(4), func(p *sim.Proc, srv *Server) {
		tn := srv.tenants[0]
		rep := srv.placementSet(tn)[tn.idx%srv.cl.ppn]
		// Three batches in flight on the pinned replica, all sent this instant:
		// a class change closes [50 50 50], another closes [18], four fill the
		// third.
		var all []*Request
		for _, class := range []int{0, 0, 0, 1, 0, 0, 0, 0} {
			all = append(all, offer(t, p, srv, tn, class))
		}
		cancelled := slices.Clone(rep.inflightB)
		if len(cancelled) != 3 || tn.shOpen != nil {
			t.Fatalf("%d batches in flight (open=%p), want 3 and none open", len(cancelled), tn.shOpen)
		}
		// With the replica down, the next sealed batch parks in the backlog.
		rep.down = true
		all = append(all, offer(t, p, srv, tn, 1), offer(t, p, srv, tn, 1), offer(t, p, srv, tn, 0))
		if len(tn.shBacklog) != 1 {
			t.Fatalf("%d batches parked, want 1", len(tn.shBacklog))
		}
		parked := tn.shBacklog[0]

		if n := srv.evacuate(p.Now(), tn, nil, rep); n != 8 {
			t.Errorf("replayed %d requests, want 8", n)
		}
		if len(tn.shBacklog) != 4 || tn.shBacklog[3] != parked {
			t.Fatalf("backlog holds %d batches, want the 3 replays ahead of the parked one", len(tn.shBacklog))
		}
		for i, old := range cancelled {
			nb := tn.shBacklog[i]
			switch {
			case nb == old || !old.cancelled || nb.cancelled:
				t.Errorf("replay %d is not a fresh batch beside a cancelled original", i)
			case nb.class != old.class || !slices.Equal(nb.reqs, old.reqs):
				t.Errorf("replay %d changed composition: %d×%s, was %d×%s",
					i, len(nb.reqs), nb.class.spec.Name, len(old.reqs), old.class.spec.Name)
			case cap(nb.reqs) != srv.cfg.MaxBatch:
				t.Errorf("replay %d has room for %d requests, want MaxBatch %d", i, cap(nb.reqs), srv.cfg.MaxBatch)
			}
		}
		rep.down = false
		srv.shFlushBacklog(p.Now(), tn)
		drain(p, srv) // the one still-open request closes on its window timer
		for i, r := range all {
			if want := map[bool]int{true: 1}[i < 8]; r.completions != 1 || r.Replays != want || r.Err != nil {
				t.Errorf("request %d: %d completions, %d replays (want 1, %d), err %v", i, r.completions, r.Replays, want, r.Err)
			}
		}
		if tn.duplicates != 0 || tn.completed != uint64(len(all)) {
			t.Errorf("completed %d of %d, %d duplicates", tn.completed, len(all), tn.duplicates)
		}
	})
}

// budgetConfig is the allocation-budget load: four Poisson tenants on the
// two-node pool, tickets armed (and expiring every 5 ms, so the cold path's
// mints are in the count).
func budgetConfig(window sim.Duration) Config {
	cfg := flowTestConfig(4)
	cfg.Window = window
	cfg.Tenants = nil
	for i := 0; i < 4; i++ {
		cfg.Tenants = append(cfg.Tenants, TenantSpec{
			Name: fmt.Sprintf("t%d", i), Arrival: Poisson, Rate: 50000, QueueCap: 64,
			Mix: []WorkClass{{Name: "resnet50", Graph: tvm.ResNet50()}},
		})
	}
	return cfg
}

// TestRequestLayout pins the size of a carved request. A chunk of arenaChunk
// requests up to 32 KiB is a small object, rounded up to the nearest of Go's
// size classes; past 32 KiB it becomes a large-object span rounded up to
// whole 8 KiB pages — at the old 144-byte layout a 36,864-byte chunk took a
// 40 KiB span, and every request paid for the slack.
func TestRequestLayout(t *testing.T) {
	size := unsafe.Sizeof(Request{})
	if size > 96 {
		t.Errorf("serve.Request is %d bytes, budget 96: trace-only state belongs behind Request.trace", size)
	}
	if chunk := size * arenaChunk; chunk > 32<<10 {
		t.Errorf("a chunk of %d requests is %d bytes, past Go's 32 KiB small-object limit", arenaChunk, chunk)
	}
}

// perRequest differences two runs of different length — allocations, heap
// bytes and completed requests — so that boot, sessions and the report cancel
// out, and returns the steady-state allocations and bytes per request. The
// longer run must complete at least minDiff more requests.
func perRequest(t *testing.T, run func(window sim.Duration) (*Result, error), short, long sim.Duration, minDiff uint64) (allocs, bytes float64) {
	t.Helper()
	measure := func(window sim.Duration) (mallocs, heap, completed uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := run(window)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range res.Tenants {
			completed += tr.Completed
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, completed
	}
	m1, b1, c1 := measure(short)
	m2, b2, c2 := measure(long)
	if c2 < c1+minDiff {
		t.Fatalf("vacuous difference: %d and %d requests completed", c1, c2)
	}
	n := float64(c2 - c1)
	allocs = (float64(m2) - float64(m1)) / n
	bytes = (float64(b2) - float64(b1)) / n
	t.Logf("%d mallocs, %d B / %d requests; %d, %d B / %d: %.4f allocations, %.1f B per request",
		m1, b1, c1, m2, b2, c2, allocs, bytes)
	return allocs, bytes
}

// TestFlowPlaneAllocationBudget is the serve row of the host budget (ROADMAP
// aim 1): on the flow-model plane a request's whole trip — arrival, admission,
// batching, the attestation gate, two port crossings, lane service,
// completion — costs at most a tenth of an allocation and 175 heap bytes. A
// request carved at the old 144-byte layout, whose 256-slot chunk fell on
// Go's large-object path, measured 202 B in this test; at 96 bytes, 149 B.
func TestFlowPlaneAllocationBudget(t *testing.T) {
	allocs, bytes := perRequest(t, func(window sim.Duration) (*Result, error) {
		res, err := Run(budgetConfig(window))
		if err == nil && res.Metrics.Counters["serve.attest.resumed"] == 0 {
			t.Fatal("vacuous run: no batch resumed on a ticket")
		}
		return res, err
	}, 10*sim.Millisecond, 50*sim.Millisecond, 5000)
	if allocs > 0.1 {
		t.Errorf("the flow plane allocates %.3f objects per request in steady state, budget 0.1", allocs)
	}
	if bytes > 175 {
		t.Errorf("the flow plane allocates %.1f heap bytes per request in steady state, budget 175", bytes)
	}
}

// TestExecutedPlaneAllocationBudget is the executed plane's row beside it:
// the serve_exec load — two Poisson tenants mixing resnet18 and resnet50 on
// two GPU partitions, least-outstanding placement — where every batch really
// pushes its HtoD, Launch and barrier records through an sRPC ring and a CUDA
// mEnclave. Differenced the same way, a request's trip costs at most a tenth
// of an allocation — the data path hands nothing back to the serving plane, so
// it allocates nothing in steady state — and 195 heap bytes: 219 B at the old
// 144-byte request layout, 168 B at 96 bytes.
func TestExecutedPlaneAllocationBudget(t *testing.T) {
	allocs, bytes := perRequest(t, func(window sim.Duration) (*Result, error) {
		return Run(execLoadConfig(window))
	}, 10*sim.Millisecond, 40*sim.Millisecond, 2000)
	if allocs > 0.1 {
		t.Errorf("the executed plane allocates %.3f objects per request in steady state, budget 0.1", allocs)
	}
	if bytes > 195 {
		t.Errorf("the executed plane allocates %.1f heap bytes per request in steady state, budget 195", bytes)
	}
}

// execLoadConfig is the serve_exec load over window: two Poisson tenants
// mixing resnet18 and resnet50 on two GPU partitions, least-outstanding
// placement.
func execLoadConfig(window sim.Duration) Config {
	mix := []WorkClass{
		{Name: "resnet18", Weight: 2, Graph: tvm.ResNet18()},
		{Name: "resnet50", Weight: 1, Graph: tvm.ResNet50()},
	}
	cfg := Config{
		Seed: 17, Window: window, Policy: LeastOutstanding,
		MaxBatch: 4, BatchWindow: 40 * sim.Microsecond,
		GPUPartitions: 2, GPUFlopsPerNs: 400,
	}
	for i := 0; i < 2; i++ {
		cfg.Tenants = append(cfg.Tenants, TenantSpec{
			Name: fmt.Sprintf("t%d", i), Arrival: Poisson, Rate: 80000, QueueCap: 64, Mix: mix,
		})
	}
	return cfg
}

// TestExecutedPlaneRekeysWakes: a batch on the executed plane is a Sync wait
// behind its HtoD and Launch records, an executor parked between batches and
// GPU jobs that share the engine, and wakes that would only send one of them
// back to sleep — a doorbell ahead of the read grid, a Sid still short of the
// Sync's target, a reprojection that moves a job's finish — are answered in
// the kernel. The serve_exec load must re-key at least one wake per batch
// (sim.wakes.rekeyed), and every one of them is still a dispatched event.
func TestExecutedPlaneRekeysWakes(t *testing.T) {
	metrics.Default.Reset()
	metrics.Default.Enable()
	defer metrics.Default.Disable()
	pre := metrics.Default.Snapshot()
	res, err := Run(execLoadConfig(10 * sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	post := metrics.Default.Snapshot()
	rekeyed, events := post.CounterDelta(pre, "sim.wakes.rekeyed"), post.CounterDelta(pre, "sim.events.dispatched")
	if res.Batches == 0 {
		t.Fatal("vacuous run: no batch")
	}
	if rekeyed < res.Batches || rekeyed > events {
		t.Errorf("%d wakes re-keyed over %d batches and %d dispatched events, want at least one a batch", rekeyed, res.Batches, events)
	}
	t.Logf("%d batches, %d events dispatched, %d wakes re-keyed (%.2f a batch)",
		res.Batches, events, rekeyed, float64(rekeyed)/float64(res.Batches))
}

// BenchmarkFlowBatch is one full batch through the flow-model plane of a
// booted two-node pool: MaxBatch submits (admission, inline batching, close by
// fill), the attestation gate, the lane port, lane service, the completion
// port and shDone — one op is one batch of four.
func BenchmarkFlowBatch(b *testing.B) {
	onPool(b, flowTestConfig(4), func(p *sim.Proc, srv *Server) {
		tn := srv.tenants[0]
		cl := tn.classes[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < srv.cfg.MaxBatch; j++ {
				if _, err := srv.submit(p.Now(), tn, cl); err != nil {
					b.Fatal(err)
				}
			}
			drain(p, srv)
		}
		b.StopTimer()
		if tn.completed != uint64(b.N*srv.cfg.MaxBatch) || tn.duplicates != 0 {
			b.Fatalf("completed %d of %d, %d duplicates", tn.completed, b.N*srv.cfg.MaxBatch, tn.duplicates)
		}
	})
}
