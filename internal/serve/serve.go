// Package serve is CRONUS's multi-tenant serving plane: the policy layer
// that sits above internal/core sessions and turns the simulated platform
// into an inference server shared by mutually-distrusting tenants (the
// paper's multi-tenant sharing scenario, §VI-E, scaled toward the ROADMAP's
// "heavy traffic" north star).
//
// The plane has four parts:
//
//   - a load generator (loadgen.go): seeded, deterministic open-loop
//     (Poisson or fixed-rate) arrival processes per tenant, with per-tenant
//     workload mixes drawn from the repo's workload packages (tvm inference
//     graphs, rodinia general-compute passes);
//   - an admission controller (admission.go): one bounded FIFO queue per
//     tenant; requests beyond the bound are shed with a typed
//     *OverloadError so callers see backpressure instead of unbounded
//     queueing;
//   - a scheduler (sched.go): per-tenant dispatchers that form dynamic
//     batches (up to MaxBatch requests or BatchWindow of virtual time,
//     whichever first — amortizing sRPC and world-switch costs the way
//     Fig. 8 amortizes streaming) and place them onto a pool of accelerator
//     mEnclave replicas under a pluggable policy (round-robin,
//     least-outstanding, device-affinity);
//   - a failover-aware retry layer (replica.go): replicas subscribe to SPM
//     failure records, requests in flight on a proceed-trapped partition
//     are replayed exactly once after the mOS restarts, and survivors on
//     other partitions are untouched. A per-request watchdog
//     (Config.RequestTimeout) bounds each batch attempt: hung devices and
//     corrupted sRPC rings are recycled and retried with exponential
//     backoff up to maxRetries times, after which the batch
//     completes with a typed *TimeoutError — so conservation (offered =
//     completed + shed, zero duplicates) holds under every fault the chaos
//     harness injects.
//
// Tenant isolation is preserved end to end: every tenant owns its session
// (CPU mEnclave) and its own accelerator mEnclaves on each pooled
// partition; batches never mix tenants, only a tenant's own requests.
//
// Determinism contract: all decisions are functions of virtual time and
// per-tenant seeded RNG streams, so a Run with a fixed Config is
// byte-identical across invocations — reports, metrics snapshots and
// per-request records included.
package serve

import (
	"fmt"

	"cronus/internal/cluster"
	"cronus/internal/core"
	"cronus/internal/elastic"
	"cronus/internal/gpu"
	"cronus/internal/metrics"
	"cronus/internal/otrace"
	"cronus/internal/sim"
	"cronus/internal/slo"
	"cronus/internal/spm"
	"cronus/internal/trace"
	"cronus/internal/tvm"
	"cronus/internal/workload/rodinia"
)

// Policy selects how a tenant's batches are placed onto its replicas.
type Policy string

const (
	// RoundRobin cycles through the tenant's live replicas.
	RoundRobin Policy = "round-robin"
	// LeastOutstanding picks the live replica with the fewest queued or
	// executing requests (ties: lowest partition index).
	LeastOutstanding Policy = "least-outstanding"
	// DeviceAffinity pins each tenant to one partition (tenant index mod
	// pool size): no cross-tenant sharing of a device, at the price of no
	// load spreading.
	DeviceAffinity Policy = "device-affinity"
)

// ArrivalKind selects a tenant's open-loop arrival process.
type ArrivalKind string

const (
	// Poisson is an open-loop process with exponential inter-arrivals.
	Poisson ArrivalKind = "poisson"
	// FixedRate is an open-loop process with constant inter-arrivals.
	FixedRate ArrivalKind = "fixed"
)

// WorkClass is one entry of a tenant's workload mix.
type WorkClass struct {
	Name   string
	Weight float64
	// Graph makes this a batchable DNN inference class: per-item device
	// time is derived from the graph's FLOPs at the serving rate.
	Graph *tvm.Graph
	// Bench makes this an unbatchable general-compute class: one full
	// rodinia benchmark pass per request (forced batch size 1).
	Bench *rodinia.Benchmark
}

// TenantSpec describes one tenant's traffic.
type TenantSpec struct {
	Name    string
	Arrival ArrivalKind
	// Rate is the offered load in requests per virtual second.
	Rate float64
	// QueueCap bounds the admission queue (default 64).
	QueueCap int
	Mix      []WorkClass
}

// Config sizes one serving-plane run.
type Config struct {
	Seed   int64
	Window sim.Duration // load-generation window (drain runs past it)
	Policy Policy

	// MaxBatch and BatchWindow control dynamic batching: a batch closes at
	// MaxBatch requests or BatchWindow after its first request, whichever
	// comes first. MaxBatch 1 disables batching.
	MaxBatch    int
	BatchWindow sim.Duration

	Tenants []TenantSpec

	// GPUPartitions sizes the replica pool: each tenant gets one
	// accelerator mEnclave per partition.
	GPUPartitions int

	// FailAt injects one FailPanic proceed-trap on gpu-part0 mid-run (0 =
	// none), exercising the failover-aware retry layer.
	FailAt sim.Duration

	// KeepRequests retains a per-request record in the Result (tests, and
	// the zero-lost/zero-duplicated accounting of cronus-serve).
	KeepRequests bool

	// GPUFlopsPerNs calibrates inference service time (default 40 — an
	// order of magnitude above the CPU fallback rate).
	GPUFlopsPerNs float64

	// RequestTimeout bounds one batch execution attempt on a replica: a
	// watchdog abandons the attempt — stream and enclave torn down, a
	// fresh one connected — when it has not completed within the bound,
	// and the batch retries on the maxRetries / retryBackoff schedule. A
	// batch that exhausts its attempts completes with a *TimeoutError,
	// keeping the conservation accounting exact. 0 disables the watchdog
	// (attempts may block on a hung device forever, the pre-chaos
	// behaviour).
	RequestTimeout sim.Duration

	// Supervise enables SPM partition health supervision under
	// HealthPolicy: every pooled partition's mOS publishes heartbeats, the
	// SPM watchdog fails silent partitions with FailHang, and the restart
	// backoff / crash-loop quarantine policy applies. It also arms the
	// replica circuit breaker: hangReportAfter consecutive request-watchdog
	// timeouts make the replica report its partition to the SPM as hung
	// instead of retrying blindly (so the breaker needs RequestTimeout).
	Supervise bool

	// Trace enables end-to-end causal tracing: every admitted request gets
	// a deterministic TraceID (otrace.DeriveTraceID of tenant name and
	// admission sequence — never wall clock), its latency is decomposed
	// into conservative stage segments (Result.Traces), whose p99 tail
	// otrace.Attribution.Outliers names by trace id, and linked spans are
	// emitted through admission, batching, placement, sRPC, mOS dispatch and
	// device launch into the kernel's collector: Run attaches a fresh one to
	// the kernel it boots (Result.Spans); a server built with New records
	// into whatever collector its kernel carries, if any. Off, the request
	// path pays one branch per hook and allocates nothing extra.
	Trace bool

	// SLO, when set, arms a per-tenant SLO tracker with this objective over
	// Window: every completion is scored good/bad and multi-window burn-rate
	// signals are evaluated (Result.SLOs).
	SLO *slo.Objective
	// SLOAdmission couples the burn-rate signal to admission: while a
	// tenant's signal fires, its effective queue cap is halved (floor 1),
	// shedding load with typed *OverloadError while the budget recovers —
	// degraded mode engaging before circuit breakers trip. Requires SLO.
	SLOAdmission bool

	// Shards >= 2 selects the flow-model plane (sharded.go): the per-request
	// path runs as an event-driven flow model over the fused zero-copy sRPC
	// cost surface instead of per-batch worker procs. The value does not
	// partition anything — every value >= 2 produces the same run. 0 or 1
	// keeps the classic executed plane byte-identically. The flow-model
	// plane serves batchable inference mixes only and is mutually exclusive
	// with Trace and Supervise (see New).
	Shards int

	// Nodes is the pool's node count (cluster.go; 0 means 1): the plane
	// spans that many simulated machines (cluster.BootNodes), each owning
	// GPUPartitions/Nodes partitions. Tenants hash onto home nodes
	// (consistent hashing with bounded-load overflow) and fail over across
	// nodes when a home pool is lost. Two or more nodes are joined by a
	// modeled fabric and require the flow-model plane; GPUPartitions must
	// divide evenly over Nodes.
	Nodes int
	// HashBound is the bounded-load factor of the placement ring: no node
	// is assigned more than ceil(HashBound · tenants / nodes) home tenants
	// (default 1.25).
	HashBound float64
	// NodeFaults schedules node-level faults (offsets from serving start):
	// node-crash, net-partition, slow-link. The chaos harness compiles its
	// cluster schedules into this. Requires the flow-model plane.
	NodeFaults []cluster.Fault

	// AttestTickets arms the attestation admission gate (attestor.go,
	// DESIGN.md §21.5): every batch dispatch is gated on the tenant holding a
	// valid session ticket for the target partition's measurement. A live
	// ticket resumes for one MAC check; a cold session pays the full quote
	// verification (through the per-epoch verification cache) and mints a
	// ticket. Off (the default), admission is byte-identical to earlier
	// revisions.
	AttestTickets bool
	// AttestTicketTTL is the virtual-time ticket lifetime (default 5ms).
	// Requires AttestTickets.
	AttestTicketTTL sim.Duration
	// AttestReprobe, when > 0, starts the continuous re-measurement prober:
	// every AttestReprobe of virtual time each pooled partition's current
	// measurement is compared against the boot-pinned value, and a mismatch
	// revokes the partition (tickets purged, in-flight work shed with the
	// typed *attest.RevokedError, partition drained into quarantine).
	// Requires AttestTickets.
	AttestReprobe sim.Duration
	// AttestFaults schedules attestation faults (attest-storm ticket
	// flushes, stale-measurement tampering) — the chaos harness compiles
	// its attestation schedules into this. Requires AttestTickets.
	AttestFaults []AttestFault

	// Migrations schedules planned live migrations (elastic.go, DESIGN.md
	// §21.6): at each offset from serving start the source partition's lanes
	// quiesce, the mEnclave state checkpoints, transfers (fabric-priced
	// across nodes), and the source releases only after the in-flight work
	// replayed exactly once on the destination. Requires the flow-model
	// plane.
	Migrations []Migration
	// Autoscale, when set, runs the elastic autoscaler control loop over
	// the plane's load signals (queue depth, shed rate, p95, SLO burn
	// rate), scaling partitions down (via the migration primitive) and back
	// up (boot + attest charged in virtual time). Requires the flow-model
	// plane.
	Autoscale *elastic.Config
	// ScaleStorms schedules forced autoscaler oscillation windows (the
	// scale-storm chaos kind): inside each window every control tick
	// alternates scale-down/scale-up regardless of load. Requires
	// Autoscale.
	ScaleStorms []ScaleStorm
}

func (c *Config) defaults() {
	if c.Window <= 0 {
		c.Window = 100 * sim.Millisecond
	}
	if c.Policy == "" {
		c.Policy = LeastOutstanding
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 1
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 50 * sim.Microsecond
	}
	if c.GPUPartitions < 1 {
		c.GPUPartitions = 1
	}
	if c.GPUFlopsPerNs <= 0 {
		c.GPUFlopsPerNs = 40
	}
	if c.HashBound <= 0 {
		c.HashBound = 1.25
	}
	if c.AttestTickets && c.AttestTicketTTL <= 0 {
		c.AttestTicketTTL = 5 * sim.Millisecond
	}
}

// Model parameters with one value in use; none is a Config knob.
const (
	// lanesPerReplica is the number of parallel sRPC rings each flow-model
	// replica opens; batches round-robin over the lanes, so service on one
	// lane does not queue behind an independent batch on another.
	lanesPerReplica = 2
	// linkLatency is the one-way gateway↔node propagation delay and linkGBps
	// the per-link bandwidth in GB/s of the fabric joining two or more nodes.
	linkLatency = 5 * sim.Microsecond
	linkGBps    = 10
	// attestCacheCap bounds the live-ticket LRU.
	attestCacheCap = 1024
	// inBytes is the per-request input upload of an inference class.
	inBytes = 1024
	// maxRetries bounds the attempts a batch gets after its first, and
	// retryBackoff is the pause before the first retry, doubling before
	// each later one: a request watchdog timeout or a corrupted ring
	// recycles the connection and retries on this schedule.
	maxRetries   = 3
	retryBackoff = 100 * sim.Microsecond
	// hangReportAfter consecutive attempt timeouts on one replica trip the
	// circuit breaker Config.Supervise arms.
	hangReportAfter = 2
)

// HealthPolicy is the one partition health policy Config.Supervise
// installs. A 200µs heartbeat with a 3-beat deadline bounds hang detection
// at 1ms (spm.Supervision.HangDetectionBound); a repeat failure delays the mOS
// restart by 500µs, doubling up to 4ms; and QuarantineAfter (3) panic or
// hang failures inside one second quarantine the partition.
func HealthPolicy() spm.Supervision {
	return spm.Supervision{
		HeartbeatEvery:  200 * sim.Microsecond,
		MissedBeats:     3,
		RestartBackoff:  500 * sim.Microsecond,
		MaxBackoff:      4 * sim.Millisecond,
		QuarantineAfter: 3,
		FailureWindow:   sim.Second,
	}
}

// Request is one admitted unit of tenant work.
//
// Its layout is held to 96 bytes (TestRequestLayout): state only a traced
// run uses lives behind the one trace pointer, and the class name is read
// through class rather than copied, so a carved chunk of arenaChunk requests
// stays within Go's small-object size classes.
type Request struct {
	ID      uint64
	Tenant  string
	Arrived sim.Time
	Done    sim.Time
	Err     error
	// Replays counts failover replays (0 for requests never caught by a
	// partition failure).
	Replays int
	// Retries counts watchdog-driven attempt retries (timeouts, ring
	// corruption) — distinct from Replays, which are partition failovers.
	Retries int

	class       *workClass
	completions int
	// trace is nil unless Config.Trace is set.
	trace *reqTrace
}

// reqTrace is the part of a request only a traced run reads: the
// deterministic causal trace id, the root span (minted at admission when the
// trace collector is enabled), and the ordered stage-entry boundaries the
// conservative latency attribution is cut from.
type reqTrace struct {
	traceID uint64
	spanID  uint64
	marks   []otrace.Mark
}

// Class is the name of the request's work class.
func (r *Request) Class() string { return r.class.spec.Name }

// TraceID is the request's deterministic causal trace id (0 unless
// Config.Trace is set).
func (r *Request) TraceID() uint64 {
	if r.trace == nil {
		return 0
	}
	return r.trace.traceID
}

// Latency is the admitted-to-completed virtual time.
func (r *Request) Latency() sim.Duration { return sim.Duration(r.Done - r.Arrived) }

// workClass is a resolved mix entry with precomputed costs.
type workClass struct {
	spec   WorkClass
	itemNS sim.Duration // per-item device work (inference classes)
	cum    float64      // cumulative sampling weight
}

// tenant is the runtime state of one TenantSpec.
type tenant struct {
	spec    TenantSpec
	idx     int
	classes []*workClass
	q       *queue
	reps    []*replica
	rrNext  int

	latHist *metrics.Histogram
	// slo scores completions against Config.SLO (nil when unset).
	slo *slo.Tracker

	offered, admitted, shed uint64
	completed, failed       uint64
	replayed, duplicates    uint64
	retried, timeouts       uint64

	// Flow-model-plane state (zero on the classic path): the open batch — its
	// pointer is also its generation, a window timer fires for the batch it
	// was armed for or for none — and the undispatchable-batch backlog.
	shOpen    *batch
	shBacklog []*batch

	// Pool placement state (cluster.go): one session per node, the current
	// and initial home node, whether a failover re-hashed the tenant, and
	// the gateway's no-split-brain ledger (liveCnt requests in flight, all
	// on liveNode).
	sessions []*core.Session
	home     int
	home0    int
	rehomed  bool
	liveNode int
	liveCnt  int
}

// Server is one booted serving plane.
type Server struct {
	// pl is the gateway-side platform (plats[0]); plats holds every node's
	// platform.
	pl    *core.Platform
	plats []*core.Platform
	cfg   Config
	reg   *metrics.Registry

	tenants []*tenant

	// anchor is a proc parked forever: handler-context code (arrival chains,
	// window timers, lane and port events) raises its CallAt and Port events
	// from it.
	anchor *sim.Proc

	endAt sim.Time // load-generation deadline

	admittedTotal  uint64
	completedTotal uint64
	drainCond      *sim.Cond

	batches   uint64
	batchReqs uint64

	ctrTimeouts    *metrics.Counter // watchdog-expired batch attempts
	ctrRetries     *metrics.Counter // batch attempts retried after recycle
	ctrReconnects  *metrics.Counter // replica reconnect attempts (failover/recycle)
	ctrHangReports *metrics.Counter // circuit-breaker FailHang reports to the SPM

	failures []*spm.FailureRecord
	// failNodes is the node index of each failures entry — reports of a
	// multi-node pool prefix the partition name with it.
	failNodes  []int
	cancelFail func()

	requests []*Request // retained when cfg.KeepRequests

	// Every Request, batch and batch's request storage is carved from these
	// (carve.go): one allocation per chunk, no object handed out twice.
	reqArena   arena[Request]
	batchArena arena[batch]
	slotArena  arena[*Request]

	// windowFn and laneDoneFn are the flow-model plane's two per-batch timer
	// callbacks (shWindowExpired, shLaneDone), bound once in NewCluster: the
	// batch rides in the event (sim.Proc.CallAtArg), so arming one builds no
	// closure.
	windowFn   func(any)
	laneDoneFn func(any)

	// traces accumulates per-request causal records in completion order
	// (deterministic) when cfg.Trace is set.
	traces []otrace.RequestTrace

	// flow selects the flow-model data plane (Config.Shards >= 2); cl is the
	// pool's placement tier; parts holds the one record per pooled
	// (node, partition), indexed node·ppn + partition like every tenant's
	// reps; at is the attestation admission gate (nil unless
	// Config.AttestTickets); el is the elastic-capacity layer (nil unless
	// migrations or autoscaling are armed).
	flow  bool
	cl    *clState
	parts []*poolPart
	at    *attState
	el    *elState
}

// serveKernel is the batchable inference kernel: its cost is carried in the
// launch arguments (total batch work in ns, SM demand), so one registration
// serves every class and calibration.
const serveKernel = "serve_infer"

// smShare is the SM fraction one batch kernel occupies, so two tenants share
// a device spatially under MPS.
const smShare = 0.5

func init() {
	gpu.Register(&gpu.Kernel{
		Name: serveKernel,
		Cost: func(_ float64, _ gpu.Dim, args []uint64) gpu.LaunchCost {
			return gpu.LaunchCost{Work: sim.Duration(args[2]), SMDemand: float64(args[3])}
		},
		Func: func(e *gpu.Exec) error {
			out, err := e.Bytes(e.Arg(0), 4)
			if err != nil {
				return err
			}
			out[0]++
			return nil
		},
	})
}

// New boots a serving plane on one already-built platform: a pool of one
// node.
func New(p *sim.Proc, pl *core.Platform, cfg Config) (*Server, error) {
	return NewCluster(p, []*core.Platform{pl}, cfg)
}

// NewCluster boots a serving plane over the pool the given node platforms
// form (Config.Nodes of them, each owning GPUPartitions/Nodes partitions):
// one session per (tenant, node), one accelerator mEnclave per (tenant,
// pooled partition), a home node per tenant from the placement ring, buffers
// allocated, SPM failure records subscribed.
func NewCluster(p *sim.Proc, plats []*core.Platform, cfg Config) (*Server, error) {
	cfg.defaults()
	nodes, ppn := cfg.pool()
	if nodes != len(plats) {
		return nil, fmt.Errorf("serve: Config.Nodes asks for a pool of %d but %d node platforms were booted",
			nodes, len(plats))
	}
	pl := plats[0]
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("serve: no tenants configured")
	}
	if cfg.SLOAdmission && cfg.SLO == nil {
		return nil, fmt.Errorf("serve: SLOAdmission requires SLO")
	}
	for _, validate := range []func(Config) error{validateCluster, validateSharded, validateAttest, validateElastic} {
		if err := validate(cfg); err != nil {
			return nil, err
		}
	}
	for n, npl := range plats {
		if ppn > len(npl.GPUs) {
			return nil, fmt.Errorf("serve: %d partitions requested on node %d, platform has %d GPUs",
				ppn, n, len(npl.GPUs))
		}
	}
	reg := metrics.NewRegistry()
	reg.Enable()
	srv := &Server{
		pl:             pl,
		plats:          plats,
		cfg:            cfg,
		reg:            reg,
		flow:           cfg.Shards >= 2,
		drainCond:      sim.NewCond(pl.K),
		ctrTimeouts:    reg.Counter("serve.timeouts"),
		ctrRetries:     reg.Counter("serve.retries"),
		ctrReconnects:  reg.Counter("serve.reconnect.attempts"),
		ctrHangReports: reg.Counter("serve.hang_reports"),
	}
	for n, npl := range plats {
		for pi := 0; pi < ppn; pi++ {
			srv.parts = append(srv.parts, &poolPart{node: n, idx: pi, sp: npl.GPUs[pi].Part})
		}
	}
	if err := srv.clBoot(); err != nil {
		return nil, err
	}
	park := sim.NewSignal(pl.K)
	srv.anchor = pl.K.Spawn("serve-anchor", func(p *sim.Proc) { park.Wait(p) })
	srv.windowFn = func(b any) { srv.shWindowExpired(b.(*batch)) }
	srv.laneDoneFn = func(b any) { srv.shLaneDone(b.(*batch)) }
	if cfg.AttestTickets {
		// Pin every partition's boot measurement and build the ticket /
		// verification caches before any load exists, so the attestation
		// timeline is identical between baseline and faulted runs.
		srv.atBoot()
	}
	if len(cfg.Migrations) > 0 || cfg.Autoscale != nil {
		// Elastic-capacity layer: the controller and counters exist before
		// any load, so an armed-but-idle layer never perturbs the timeline.
		srv.elBoot()
	}
	// Partition health supervision: arm heartbeats on every pooled
	// partition and start the SPM watchdog before any load exists, so the
	// supervision timeline is identical between baseline and faulted runs.
	if cfg.Supervise {
		pl.SPM.SetSupervision(HealthPolicy())
		sv := pl.SPM.SupervisionConfig()
		for pi := 0; pi < cfg.GPUPartitions; pi++ {
			pl.GPUs[pi].OS.StartHeartbeat(sv.HeartbeatEvery)
		}
		pl.SPM.StartWatchdog()
	}
	smDemand := uint64(pl.GPUs[0].Dev.SMs() * smShare)
	if smDemand < 1 {
		smDemand = 1
	}
	for ti := range cfg.Tenants {
		spec := cfg.Tenants[ti]
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("tenant-%d", ti)
		}
		if spec.QueueCap <= 0 {
			spec.QueueCap = 64
		}
		if spec.Arrival == "" {
			spec.Arrival = Poisson
		}
		if len(spec.Mix) == 0 {
			return nil, fmt.Errorf("serve: tenant %s has an empty workload mix", spec.Name)
		}
		t := &tenant{spec: spec, idx: ti}
		cum := 0.0
		for _, wc := range spec.Mix {
			if (wc.Graph == nil) == (wc.Bench == nil) {
				return nil, fmt.Errorf("serve: class %s of tenant %s must set exactly one of Graph or Bench",
					wc.Name, spec.Name)
			}
			w := wc.Weight
			if w <= 0 {
				w = 1
			}
			cum += w
			cl := &workClass{spec: wc, cum: cum}
			if wc.Graph != nil {
				cl.itemNS = sim.Duration(wc.Graph.FLOPs() / cfg.GPUFlopsPerNs)
			}
			t.classes = append(t.classes, cl)
		}
		// One session per node: the replica block on node n is owned by the
		// tenant's session on that node's platform.
		for n, npl := range plats {
			sess, err := npl.NewSession(p, spec.Name)
			if err != nil {
				return nil, fmt.Errorf("serve: session for %s on node %d: %w", spec.Name, n, err)
			}
			t.sessions = append(t.sessions, sess)
		}
		t.q = newQueue(pl.K, spec.QueueCap,
			reg.Gauge("serve.tenant."+spec.Name+".queue_depth"))
		t.latHist = reg.Histogram("serve.tenant." + spec.Name + ".latency_ns")
		if cfg.SLO != nil {
			t.slo = slo.NewTracker(*cfg.SLO, cfg.Window)
		}
		for _, pp := range srv.parts {
			rep, err := newReplica(p, srv, t, pp, smDemand)
			if err != nil {
				return nil, fmt.Errorf("serve: replica %s/n%d/%s: %w", spec.Name, pp.node, pp.sp.Name, err)
			}
			t.reps = append(t.reps, rep)
		}
		srv.tenants = append(srv.tenants, t)
	}
	srv.clAssignHomes()
	// Subscribe to SPM failure records: mark every replica on the failed
	// partition down the instant the proceed-trap fires, so the scheduler
	// routes around it while its mOS restarts, and the partition quarantined
	// when the record says it never restarts. Every node's SPM is its own
	// failure domain, and partition names repeat across nodes ("gpu-part0"
	// exists on each), so the subscription matches (node, partition) pairs.
	cancels := make([]func(), 0, len(plats))
	for n := range plats {
		n := n
		cancels = append(cancels, plats[n].SPM.OnFailure(func(rec *spm.FailureRecord) {
			srv.failures = append(srv.failures, rec)
			srv.failNodes = append(srv.failNodes, n)
			for i, pp := range srv.parts {
				if pp.node != n || pp.sp.Name != rec.Partition {
					continue
				}
				if rec.Quarantined {
					// Crash-loop policy tripped or the measurement was
					// revoked: the scheduler must stop waiting on this
					// partition, not route around a transient restart.
					pp.quarantined = true
				}
				for _, t := range srv.tenants {
					rep := t.reps[i]
					rep.down = true
					if srv.flow {
						srv.shReplicaDown(rep)
					} else {
						rep.cond.Broadcast() // wake an idle worker into failover
					}
				}
			}
		}))
	}
	srv.cancelFail = func() {
		for _, c := range cancels {
			c()
		}
	}
	return srv, nil
}

// mark records one stage-entry boundary on a request's timeline — the raw
// material the conservative latency attribution is cut from. A no-op unless
// Config.Trace is set.
func (srv *Server) mark(r *Request, st otrace.Stage, at sim.Time) {
	if !srv.cfg.Trace {
		return
	}
	r.trace.marks = append(r.trace.marks, otrace.Mark{Stage: st, At: at})
}

// markBatch marks every request of a batch at once.
func (srv *Server) markBatch(b *batch, st otrace.Stage, at sim.Time) {
	if !srv.cfg.Trace {
		return
	}
	for _, r := range b.reqs {
		r.trace.marks = append(r.trace.marks, otrace.Mark{Stage: st, At: at})
	}
}

// finish finalizes one request exactly once at the given instant; duplicate
// completions are counted and dropped.
func (srv *Server) finish(t *tenant, r *Request, at sim.Time, err error) {
	r.completions++
	if r.completions > 1 {
		t.duplicates++
		return
	}
	r.Done = at
	r.Err = err
	if err != nil {
		t.failed++
	} else {
		t.completed++
		t.latHist.Observe(int64(r.Latency()))
	}
	if t.slo != nil {
		t.slo.Record(r.Done, r.Latency(), err != nil)
	}
	if srv.cfg.Trace {
		srv.finishTrace(t, r, err)
	}
	srv.completedTotal++
	srv.drainCond.Broadcast()
}

// finishBatch finalizes every request of a batch with one outcome.
func (srv *Server) finishBatch(b *batch, at sim.Time, err error) {
	for _, r := range b.reqs {
		srv.finish(b.t, r, at, err)
	}
}

// finishTrace cuts the request's conservative stage decomposition, retains
// the causal record, and — when the kernel is traced — emits the request's
// root span plus one child span per stage segment onto the tenant's track.
// Completion order is deterministic, so the emitted span ids are too.
func (srv *Server) finishTrace(t *tenant, r *Request, err error) {
	rt := r.trace
	segs := otrace.SegmentsFromMarks(r.Arrived, r.Done, rt.marks)
	srv.traces = append(srv.traces, otrace.RequestTrace{
		TraceID:  rt.traceID,
		Tenant:   t.spec.Name,
		Class:    r.Class(),
		Arrived:  r.Arrived,
		Done:     r.Done,
		Failed:   err != nil,
		Retries:  uint32(r.Retries),
		Replays:  uint32(r.Replays),
		Segments: segs,
	})
	tc := trace.Of(srv.pl.K)
	if tc == nil || rt.traceID == 0 {
		return
	}
	track := "req:" + t.spec.Name
	tc.SpanAtLinked(r.Arrived, r.Done, "req", track,
		"request "+r.Class(), rt.traceID, rt.spanID, 0)
	for _, s := range segs {
		tc.SpanAtLinked(s.From, s.To, "req", track,
			string(s.Stage), rt.traceID, tc.NextSpanID(), rt.spanID)
	}
}
