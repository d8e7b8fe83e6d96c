package chaos

import (
	"errors"
	"strings"
	"testing"

	"cronus/internal/serve"
	"cronus/internal/spm"
)

// clusterOpts is the `make chaos` cluster layout: two nodes, two partitions
// and two tenants each.
func clusterOpts() Options {
	return Options{Nodes: 2, Partitions: 4, Tenants: 4}
}

// migrationKinds is the elastic-capacity fault mix.
var migrationKinds = []Kind{KindMigrateInterrupt, KindScaleStorm, KindDrainRace}

// withKinds returns o restricted to the given fault mix.
func withKinds(o Options, kinds ...Kind) Options {
	o.Kinds = kinds
	return o
}

// mustCompile compiles a schedule the test expects to be valid.
func mustCompile(t *testing.T, seed int64, o Options) *Schedule {
	t.Helper()
	s, err := Compile(seed, o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScheduleDeterministic pins Compile to its seed: same (seed, Options),
// same schedule; different seeds, (almost surely) different schedules.
func TestScheduleDeterministic(t *testing.T) {
	a := mustCompile(t, 42, Options{})
	b := mustCompile(t, 42, Options{})
	if a.String() != b.String() {
		t.Fatalf("same seed compiled different schedules:\n%s\nvs\n%s", a, b)
	}
	c := mustCompile(t, 43, Options{})
	if a.String() == c.String() {
		t.Errorf("seeds 42 and 43 compiled identical schedules:\n%s", a)
	}
	if len(a.Faults) < 3 {
		t.Errorf("schedule has %d faults, want >= 3", len(a.Faults))
	}
}

// TestDeterministicReplay is the replay contract — what cronus-chaos -verify
// checks — on both topologies: running the same seed twice must produce
// byte-identical reports — schedules, fired flags, serving tables, probe
// lines and verdicts all derive from virtual time and the seed alone.
func TestDeterministicReplay(t *testing.T) {
	for _, c := range []struct {
		name string
		o    Options
	}{{"platform", Options{}}, {"cluster", clusterOpts()}} {
		t.Run(c.name, func(t *testing.T) {
			a, err := Run(7, c.o)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(7, c.o)
			if err != nil {
				t.Fatal(err)
			}
			ra, rb := a.Report(), b.Report()
			if ra != rb {
				t.Fatalf("same-seed reports differ:\n--- first ---\n%s\n--- second ---\n%s", ra, rb)
			}
			if !a.Passed() {
				t.Errorf("seed 7 violated invariants:\n%s", ra)
			}
		})
	}
}

// TestCampaignInvariants is the soak on both topologies: consecutive seeds
// (25 on one platform, 5 under -short; 5 on the fabric), every invariant
// upheld on each — conservation with zero duplicates, survivors within
// tolerance of baseline, crashed partitions unreadable — and the campaign
// summary rendered in the topology's shape.
func TestCampaignInvariants(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 5
	}
	for _, c := range []struct {
		name   string
		seeds  int
		o      Options
		header string
	}{
		{"platform", n, Options{}, "chaos campaign: seeds 1.."},
		{"cluster", 5, clusterOpts(), "chaos cluster campaign: seeds 1..5 (5 runs, 2 nodes)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cr, err := RunCampaign(1, c.seeds, c.o)
			if err != nil {
				t.Fatal(err)
			}
			rep := cr.Report()
			if !cr.Passed() {
				t.Fatalf("campaign violations:\n%s", rep)
			}
			if !strings.Contains(rep, c.header) || !strings.Contains(rep, "0 violations") {
				t.Fatalf("unexpected campaign summary, want header %q and a zero violation total:\n%s", c.header, rep)
			}
			fired := 0
			for _, rr := range cr.Runs {
				fired += rr.FiredCount()
				if !strings.Contains(rr.Report(), "verdict: PASS") {
					t.Fatalf("run report missing verdict:\n%s", rr.Report())
				}
			}
			if !c.o.cluster() && fired == 0 {
				t.Fatalf("no fault fired across %d seeds — the harness is injecting nothing:\n%s", c.seeds, rep)
			}
		})
	}
}

// TestRunRejectsTopologyMismatch pins the usage errors: a kind or option that
// does not belong to the topology Options.Nodes selects, or a partition pool
// that does not divide over the nodes, is a typed error before anything boots
// — never a green run that injected nothing.
func TestRunRejectsTopologyMismatch(t *testing.T) {
	for _, c := range []struct {
		name   string
		o      Options
		kind   Kind   // want *TopologyError naming this kind
		option string // want *TopologyError naming this option
		layout bool   // want *serve.ShardLayoutError
	}{
		{name: "cluster kinds on one platform",
			o: Options{Kinds: []Kind{KindNodeCrash, KindAttestStorm}}, kind: KindNodeCrash},
		{name: "platform kinds on the fabric",
			o: withKinds(clusterOpts(), KindCrash, KindRingCorrupt), kind: KindCrash},
		{name: "mixed kinds name the stranger",
			o: withKinds(clusterOpts(), KindSlowLink, KindDeviceHang), kind: KindDeviceHang},
		{name: "trace on the fabric",
			o: Options{Nodes: 2, Partitions: 4, Tenants: 4, Trace: true}, option: "Trace"},
		{name: "one node is one platform",
			o: Options{Nodes: 1, Kinds: []Kind{KindNodeCrash}}, kind: KindNodeCrash},
		{name: "indivisible partition pool",
			o: Options{Nodes: 2, Partitions: 3}, layout: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			rr, err := Run(1, c.o)
			if err == nil {
				t.Fatalf("accepted; report:\n%s", rr.Report())
			}
			var te *TopologyError
			var le *serve.ShardLayoutError
			switch {
			case c.layout:
				if !errors.As(err, &le) || le.Partitions != c.o.Partitions || le.Nodes != c.o.Nodes {
					t.Fatalf("want *serve.ShardLayoutError for the layout, got %T: %v", err, err)
				}
			case !errors.As(err, &te):
				t.Fatalf("want *TopologyError, got %T: %v", err, err)
			case te.Kind != c.kind || te.Option != c.option || te.Nodes != c.o.Nodes:
				t.Fatalf("error names kind %q option %q nodes %d, want %q %q %d: %v",
					te.Kind, te.Option, te.Nodes, c.kind, c.option, c.o.Nodes, err)
			}
			if _, cerr := RunCampaign(1, 2, c.o); cerr == nil || cerr.Error() != err.Error() {
				t.Errorf("RunCampaign error %v, want %v", cerr, err)
			}
		})
	}
	// Nodes: 1 with its own kinds is simply the single-platform topology.
	if _, err := Compile(1, Options{Nodes: 1}); err != nil {
		t.Errorf("Nodes: 1 with the default mix rejected: %v", err)
	}
	// A kind no taxonomy row lists is an error on either topology.
	if _, err := Compile(1, Options{Kinds: []Kind{"node-melt"}}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestEveryKindEarnsItsPlace runs each known kind alone through Run on the
// topology the taxonomy assigns it: every seed tried must pass with the kind
// in its schedule, and within a small seed range the fault must land — fired
// by the Injector on one platform; on the fabric, where faults ride the
// serving config, a faulted run that differs from the baseline — so deleting
// or mis-wiring any kind fails here.
func TestEveryKindEarnsItsPlace(t *testing.T) {
	for _, k := range KnownKinds() {
		k := k
		t.Run(string(k), func(t *testing.T) {
			o := Options{Kinds: []Kind{k}, Faults: 1}
			if lookup(k).cluster {
				o = withKinds(clusterOpts(), k)
				o.Faults = 1
			}
			for seed := int64(1); seed <= 6; seed++ {
				rr, err := Run(seed, o)
				if err != nil {
					t.Fatal(err)
				}
				if !rr.Passed() {
					t.Fatalf("seed %d violated invariants:\n%s", seed, rr.Report())
				}
				if !rr.Schedule.has(k) {
					t.Fatalf("seed %d never drew %q:\n%s", seed, k, rr.Schedule)
				}
				if o.cluster() && rr.Faulted.Report() != rr.Baseline.Report() {
					return
				}
				for i, f := range rr.Schedule.Faults {
					if !o.cluster() && f.Kind == k && rr.Fired[i] {
						return
					}
				}
			}
			t.Fatalf("%q never landed over seeds 1..6", k)
		})
	}
}

// TestHangRecoveryExactlyOnce drives hang-only schedules: every fired hang
// must be absorbed by the watchdog (a timeout, then a successful retry) with
// zero lost and zero duplicated requests.
func TestHangRecoveryExactlyOnce(t *testing.T) {
	o := Options{Kinds: []Kind{KindDeviceHang}, Faults: 2}
	rr, err := Run(3, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Passed() {
		t.Fatalf("hang run violated invariants:\n%s", rr.Report())
	}
	if rr.FiredCount() == 0 {
		t.Fatalf("no hang fired:\n%s", rr.Report())
	}
	var timeouts, retried, failed, dups uint64
	for _, tr := range rr.Faulted.Tenants {
		timeouts += tr.Timeouts
		retried += tr.Retried
		failed += tr.Failed
		dups += tr.Duplicates
	}
	if timeouts != uint64(rr.FiredCount()) {
		t.Errorf("timeouts = %d, want %d (one per fired one-shot hang)", timeouts, rr.FiredCount())
	}
	if retried == 0 {
		t.Error("no retries recorded despite fired hangs")
	}
	if failed != 0 {
		t.Errorf("failed = %d, want 0 — one-shot hangs must be recovered within the retry budget", failed)
	}
	if dups != 0 {
		t.Errorf("duplicates = %d, want 0", dups)
	}
}

// TestCrashIsolationProbe drives a crash-only schedule and checks the probe
// audit actually ran: the stale stream failed typed and the restarted
// partition read back scrubbed.
func TestCrashIsolationProbe(t *testing.T) {
	o := Options{Kinds: []Kind{KindCrash}, Faults: 1}
	rr, err := Run(11, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Passed() {
		t.Fatalf("crash run violated invariants:\n%s", rr.Report())
	}
	if rr.FiredCount() != 1 {
		t.Fatalf("crash did not fire:\n%s", rr.Report())
	}
	if len(rr.ProbeLines) == 0 {
		t.Fatal("no probe audit lines — the isolation check never ran")
	}
	for _, l := range rr.ProbeLines {
		if !strings.Contains(l, "stale-read=peer-failed") || !strings.Contains(l, "scrub=zeros") {
			t.Errorf("probe line %q, want stale-read=peer-failed scrub=zeros", l)
		}
	}
}

// TestParseKinds pins the -kinds flag grammar: empty means default, spaces
// are trimmed, unknown names are rejected with the known list.
func TestParseKinds(t *testing.T) {
	if got, err := ParseKinds(""); err != nil || got != nil {
		t.Fatalf("ParseKinds(%q) = %v, %v, want nil, nil", "", got, err)
	}
	got, err := ParseKinds(" crash , persistent-hang,crash-loop ")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{KindCrash, KindPersistentHang, KindCrashLoop}
	if len(got) != len(want) {
		t.Fatalf("ParseKinds returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseKinds returned %v, want %v", got, want)
		}
	}
	if _, err := ParseKinds("crash,bogus"); err == nil ||
		!strings.Contains(err.Error(), `"bogus"`) ||
		!strings.Contains(err.Error(), "crash-loop") {
		t.Fatalf("ParseKinds accepted an unknown kind (err=%v)", err)
	}
}

// TestKnownKindsPinned pins the complete fault-kind vocabulary: every kind
// below must parse, no other kind may exist, and the parser's error message
// must enumerate exactly this list — so usage text, error text and the parser
// can never drift apart.
func TestKnownKindsPinned(t *testing.T) {
	want := []Kind{
		KindCrash, KindRingCorrupt, KindDeviceHang, KindAttestFail,
		KindPersistentHang, KindCrashLoop,
		KindNodeCrash, KindNetPartition, KindSlowLink,
		KindAttestStorm, KindStaleMeasurement,
		KindMigrateInterrupt, KindScaleStorm, KindDrainRace,
	}
	got := KnownKinds()
	if len(got) != len(want) {
		t.Fatalf("KnownKinds has %d kinds, want %d: %v", len(got), len(want), got)
	}
	for i, k := range want {
		t.Run(string(k), func(t *testing.T) {
			if got[i] != k {
				t.Fatalf("KnownKinds[%d] = %q, want %q", i, got[i], k)
			}
			parsed, err := ParseKinds(string(k))
			if err != nil || len(parsed) != 1 || parsed[0] != k {
				t.Fatalf("ParseKinds(%q) = %v, %v", k, parsed, err)
			}
		})
	}
	_, err := ParseKinds("no-such-kind")
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	names := make([]string, len(want))
	for i, k := range want {
		names[i] = string(k)
	}
	if !strings.Contains(err.Error(), strings.Join(names, ",")) {
		t.Fatalf("error message does not enumerate every known kind:\n%v", err)
	}
	// The usage text's two topology lists partition the vocabulary: the
	// single-platform kinds, then the cluster kinds, in canonical order.
	if got := TopologyKinds(false) + "," + TopologyKinds(true); got != strings.Join(names, ",") {
		t.Errorf("TopologyKinds(false), TopologyKinds(true) = %s, want %s", got, strings.Join(names, ","))
	}
	if got := TopologyKinds(false); got != "crash,ring-corrupt,device-hang,attest-fail,persistent-hang,crash-loop" {
		t.Errorf("TopologyKinds(false) = %s", got)
	}
}

// TestCrashLoopCompileDegrades pins the crash-loop draw guards: at most one
// crash-loop per schedule, and none on a one-partition pool (no survivors to
// re-place onto) — excess draws degrade to plain crashes.
func TestCrashLoopCompileDegrades(t *testing.T) {
	s := mustCompile(t, 17, Options{Kinds: []Kind{KindCrashLoop}, Faults: 3, Partitions: 2})
	loops, crashes := 0, 0
	for _, f := range s.Faults {
		switch f.Kind {
		case KindCrashLoop:
			loops++
			if want := serve.HealthPolicy().QuarantineAfter; f.Crashes != want {
				t.Errorf("crash-loop sized to %d crashes, want %d", f.Crashes, want)
			}
		case KindCrash:
			crashes++
		}
	}
	if loops != 1 || crashes != 2 {
		t.Errorf("3 crash-loop draws compiled to %d loops + %d crashes, want 1 + 2", loops, crashes)
	}
	s1 := mustCompile(t, 17, Options{Kinds: []Kind{KindCrashLoop}, Faults: 2, Partitions: 1})
	for _, f := range s1.Faults {
		if f.Kind == KindCrashLoop {
			t.Error("crash-loop compiled for a one-partition pool")
		}
	}
}

// TestPersistentHangDetectedByWatchdog drives a persistent-hang-only
// schedule: the wedge must fire, the SPM watchdog must raise FailHang within
// the detection bound (checkSupervision enforces the latency), and
// conservation must hold.
func TestPersistentHangDetectedByWatchdog(t *testing.T) {
	o := Options{Kinds: []Kind{KindPersistentHang}, Faults: 1}
	rr, err := Run(13, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Passed() {
		t.Fatalf("persistent-hang run violated invariants:\n%s", rr.Report())
	}
	if rr.FiredCount() != 1 {
		t.Fatalf("wedge did not fire:\n%s", rr.Report())
	}
	if rr.Faulted.FailuresByReason()[spm.FailHang] < 1 {
		t.Fatalf("no FailHang failover recorded:\n%s", rr.Report())
	}
}

// TestCrashLoopEndsQuarantined drives a crash-loop-only schedule: the loop
// must fire, the partition must finish the run quarantined, and the pinned
// tenant's load must still be conserved on the surviving partition.
func TestCrashLoopEndsQuarantined(t *testing.T) {
	o := Options{Kinds: []Kind{KindCrashLoop}, Faults: 1}
	rr, err := Run(9, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Passed() {
		t.Fatalf("crash-loop run violated invariants:\n%s", rr.Report())
	}
	if rr.FiredCount() == 0 {
		t.Fatalf("crash-loop did not fire:\n%s", rr.Report())
	}
	quarantined := false
	for _, st := range rr.PartStates {
		if st == "quarantined" {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("no partition ended quarantined (states %v):\n%s", rr.PartStates, rr.Report())
	}
	if !strings.Contains(rr.Report(), "quarantined by crash-loop policy") {
		t.Errorf("report missing the quarantine failover line:\n%s", rr.Report())
	}
}

// TestAttestOutageRecovered drives the attest-fail kind (always paired with
// its crash): the vetoed reports must only delay reconnection, never break
// conservation or leak requests.
func TestAttestOutageRecovered(t *testing.T) {
	o := Options{Kinds: []Kind{KindAttestFail}, Faults: 1}
	rr, err := Run(5, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Passed() {
		t.Fatalf("attest run violated invariants:\n%s", rr.Report())
	}
	// The schedule carries the crash + the outage; both should fire.
	if rr.FiredCount() != len(rr.Schedule.Faults) {
		t.Errorf("fired %d of %d faults:\n%s", rr.FiredCount(), len(rr.Schedule.Faults), rr.Report())
	}
}
