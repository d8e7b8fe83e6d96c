package normal_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"cronus/internal/attest"
	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/mos"
	"cronus/internal/normal"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/srpc"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's normal-OS matrix")

// strategy is what the malicious OS does with one call on its way to the
// SMC gate.
type strategy uint8

const (
	pass    strategy = iota
	drop             // refuse to relay it: normal.ErrDropped
	replay           // send the earlier session's call of the same kind and rank instead
	flip             // flip one byte of a copy: the sealed payload's, the DH key's, the stream id's or the nonce's
	reroute          // send it to the next partition
	forge            // answer it without entering the gate
	strategies
)

var strategyNames = [strategies]string{"pass", "drop", "replay", "flip", "reroute", "forge"}

// kinds are the SMC kinds in the order of the matrix's rows.
var kinds = []struct {
	kind spm.CallKind
	name string
}{
	{spm.CallCreate, "create"},
	{spm.CallInvoke, "sealed invoke"},
	{spm.CallLocalReport, "local report"},
	{spm.CallReport, "platform report"},
	{spm.CallStreamSetup, "stream setup"},
	{spm.CallSpawnExecutor, "spawn executor"},
}

// steps name the fixed session's steps. Its calls through the gate, in
// order: create (NewSession), invoke, invoke, create, local report, stream
// setup, spawn executor (OpenCUDA), none (MemAlloc rides the stream), report
// (RemoteAttest).
var steps = []string{"NewSession", "Ping", "Ping", "OpenCUDA", "MemAlloc", "RemoteAttest"}

// sentinels are the refusals a step may end in instead of its honest result.
var sentinels = []struct {
	name string
	err  error
}{
	{"normal.ErrDropped", normal.ErrDropped},
	{"spm.ErrNoPartition", spm.ErrNoPartition},
	{"mos.ErrNoEnclave", mos.ErrNoEnclave},
	{"mos.ErrWrongPartition", mos.ErrWrongPartition},
	{"srpc.ErrNoEndpoint", srpc.ErrNoEndpoint},
	{"srpc.ErrNoStream", srpc.ErrNoStream},
	{"srpc.ErrForgedReport", srpc.ErrForgedReport},
	{"srpc.ErrReportIdentity", srpc.ErrReportIdentity},
	{"attest.ErrTampered", attest.ErrTampered},
	{"attest.ErrReplayed", attest.ErrReplayed},
	{"attest.ErrAtKNotEndorsed", attest.ErrAtKNotEndorsed},
	{"attest.ErrBadSignature", attest.ErrBadSignature},
	{"attest.ErrStaleNonce", attest.ErrStaleNonce},
	{"attest.ErrMeasurementMissing", attest.ErrMeasurementMissing},
	{"attest.ErrMeasurementMismatch", attest.ErrMeasurementMismatch},
}

func sentinelOf(err error) string {
	for _, s := range sentinels {
		if errors.Is(err, s.err) {
			return s.name
		}
	}
	return ""
}

// maliciousOS records every call of an earlier, honest session, then plays
// plan[i] on the i-th call of the session under attack.
type maliciousOS struct {
	recording bool
	earlier   map[spm.CallKind][]spm.Call
	rank      map[spm.CallKind]int
	plan      []strategy
	calls     int
	parts     []spm.PartitionID
	key       *attest.DHKey
	forgedRun bool // it claimed an executor it never started
}

func (o *maliciousOS) Relay(p *sim.Proc, c spm.Call, gate normal.Gate) (spm.Reply, error) {
	if o.recording {
		kept := c
		kept.Msg.Payload = bytes.Clone(c.Msg.Payload)
		kept.DHPub = bytes.Clone(c.DHPub)
		o.earlier[c.Kind] = append(o.earlier[c.Kind], kept)
		return gate(p, c)
	}
	st := pass
	if o.calls < len(o.plan) {
		st = o.plan[o.calls]
	}
	o.calls++
	k := o.rank[c.Kind]
	o.rank[c.Kind]++
	switch st {
	case drop:
		return spm.Reply{}, normal.ErrDropped
	case replay:
		if k < len(o.earlier[c.Kind]) {
			c = o.earlier[c.Kind][k]
		}
	case flip:
		switch {
		case len(c.Msg.Payload) > 0:
			c.Msg.Payload = bytes.Clone(c.Msg.Payload)
			c.Msg.Payload[0] ^= 0xff
		case len(c.DHPub) > 0:
			c.DHPub = bytes.Clone(c.DHPub)
			c.DHPub[0] ^= 0xff
		case c.Kind == spm.CallSpawnExecutor:
			c.Stream ^= 0xff
		default:
			c.Nonce ^= 0xff
		}
	case reroute:
		for i, id := range o.parts {
			if id == c.Part {
				c.Part = o.parts[(i+1)%len(o.parts)]
				break
			}
		}
	case forge:
		return o.forge(c), nil
	}
	return gate(p, c)
}

// forge makes up the answer to c from nothing the secure world said. It
// pays no world switch.
func (o *maliciousOS) forge(c spm.Call) spm.Reply {
	switch c.Kind {
	case spm.CallCreate:
		return spm.Reply{EID: uint32(c.Part)<<24 | 0xffffff, DHPub: o.key.Pub}
	case spm.CallLocalReport:
		r := attest.LocalReport{EnclaveID: c.EID, Nonce: c.Nonce}
		return spm.Reply{Local: r, MAC: attest.NewLocalSealer([]byte("not the LSK")).Seal(r)}
	case spm.CallReport:
		priv := attest.KeyFromSeed([]byte("not the AtK"))
		r := attest.Report{Nonce: c.Nonce}
		return spm.Reply{Report: &attest.SignedReport{Report: r, Sig: attest.Sign(priv, r.Encode()), AtK: priv.Public().(attest.PublicKey)}}
	case spm.CallSpawnExecutor:
		o.forgedRun = true
		return spm.Reply{}
	}
	return spm.Reply{Msg: attest.SealedMsg{Seq: 1, Payload: []byte("forged")}}
}

// outcome is what the session under attack saw.
type outcome struct {
	results [][]byte // per step; nil where the step failed
	errs    []error  // per step; a step after a failed one it needs carries that one's error
	leaked  uint64   // owner memory a refused OpenCUDA left in use
	runErr  error    // the simulation's own end: nil, or a deadlock
	forged  bool     // the OS claimed an executor it never started
}

// runSession boots a platform, runs an honest session "warm" that the OS
// records, then the session "victim" with the OS playing plan on its calls.
func runSession(plan []strategy) outcome {
	var out outcome
	o := &maliciousOS{recording: true, earlier: map[spm.CallKind][]spm.Call{}, rank: map[spm.CallKind]int{}}
	out.runErr = core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		var err error
		if o.key, err = attest.NewDHKey([]byte("malicious OS")); err != nil {
			return err
		}
		for _, part := range pl.SPM.Partitions() {
			o.parts = append(o.parts, part.ID)
		}
		pl.D.Adversary = o
		for i, err := range workload(pl, p, "warm", 1, nil).errs {
			if err != nil {
				return fmt.Errorf("honest warm-up: %s: %w", steps[i], err)
			}
		}
		o.recording, o.plan = false, plan
		workload(pl, p, "victim", 2, &out)
		return nil
	})
	out.forged = o.forgedRun
	return out
}

// workload runs the fixed session's steps, recording into out (or a fresh
// outcome) as it goes, so a step that never returns leaves the earlier ones.
func workload(pl *core.Platform, p *sim.Proc, name string, nonce uint64, out *outcome) *outcome {
	if out == nil {
		out = new(outcome)
	}
	record := func(res []byte, err error) error {
		out.results, out.errs = append(out.results, res), append(out.errs, err)
		return err
	}
	s, err := pl.NewSession(p, name)
	if record(nil, err) != nil {
		for range steps[1:] {
			record(nil, err)
		}
		return out
	}
	record(s.Ping(p, []byte("ping one")))
	record(s.Ping(p, []byte("ping two")))
	before := s.Owner().MemUsed()
	conn, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add")})
	if record(nil, err) != nil {
		out.leaked = s.Owner().MemUsed() - before
		record(nil, err)
	} else {
		ptr, err := conn.MemAlloc(p, 64)
		record([]byte(fmt.Sprint(ptr)), err)
	}
	record(nil, s.Attest(p, nonce))
	return out
}

// honest is the victim session's outcome with every call relayed untouched.
func honest(t testing.TB) outcome {
	t.Helper()
	h := runSession(nil)
	if h.runErr != nil || len(h.errs) != len(steps) {
		t.Fatalf("honest session: %v, steps %v", h.runErr, h.errs)
	}
	for i, err := range h.errs {
		if err != nil {
			t.Fatalf("honest session: %s: %v", steps[i], err)
		}
	}
	return h
}

// check is the oracle: every step returns the honest result byte for byte or
// an error that is one of the sentinels; a refused OpenCUDA leaves the
// owner's memory where it was; the simulation ends without a panic, and in a
// deadlock only when the OS claimed an executor it never started.
func check(t *testing.T, plan []strategy, h, got outcome) {
	t.Helper()
	var dl *sim.DeadlockError
	if got.runErr != nil && !(errors.As(got.runErr, &dl) && got.forged) {
		t.Fatalf("plan %v: the simulation ended in %v", plan, got.runErr)
	}
	if got.runErr == nil && len(got.errs) != len(steps) {
		t.Fatalf("plan %v: %d of %d steps returned", plan, len(got.errs), len(steps))
	}
	for i, err := range got.errs {
		switch {
		case err == nil && !bytes.Equal(got.results[i], h.results[i]):
			t.Errorf("plan %v: %s returned %q, the honest session %q", plan, steps[i], got.results[i], h.results[i])
		case err != nil && sentinelOf(err) == "":
			t.Errorf("plan %v: %s failed with no listed sentinel: %v", plan, steps[i], err)
		}
	}
	if got.leaked != 0 {
		t.Errorf("plan %v: a refused OpenCUDA left %d B of the owner's memory in use", plan, got.leaked)
	}
}

// FuzzNormalOS decodes its bytes into one strategy per call of the fixed
// session and holds every outcome to the oracle of check.
func FuzzNormalOS(f *testing.F) {
	h := honest(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		plan := make([]strategy, len(data))
		for i, b := range data {
			plan[i] = strategy(b) % strategies
		}
		check(t, plan, h, runSession(plan))
	})
}

// availability marks a cell whose refusal only denies service, which
// DESIGN.md §5 excludes.
const availability = "DoS¹"

// cell runs one strategy on the first call of kind and names what refused
// it: the first failing step's sentinel, the §11 exclusion for a refusal
// that only withholds service, or "no effect" when every step returned its
// honest result.
func cell(t *testing.T, h outcome, kind spm.CallKind, st strategy) string {
	// The call ordinal of the first call of each kind (see steps).
	first := map[spm.CallKind]int{spm.CallCreate: 0, spm.CallInvoke: 1, spm.CallLocalReport: 4,
		spm.CallStreamSetup: 5, spm.CallSpawnExecutor: 6, spm.CallReport: 7}
	plan := make([]strategy, first[kind]+1)
	plan[first[kind]] = st
	got := runSession(plan)
	check(t, plan, h, got)
	if got.runErr != nil {
		return availability
	}
	for _, err := range got.errs {
		if err == nil {
			continue
		}
		if errors.Is(err, normal.ErrDropped) {
			return availability
		}
		return "`" + sentinelOf(err) + "`"
	}
	return "no effect"
}

// TestNormalOSMatrix is the normal-OS row of the threat matrix: every SMC
// kind under every strategy, on the fixed session. It renders the table
// into EXPERIMENTS.md and fails when the file says otherwise (-update
// rewrites it).
func TestNormalOSMatrix(t *testing.T) {
	h := honest(t)
	var b strings.Builder
	b.WriteString("| SMC kind |")
	for _, name := range strategyNames[drop:] {
		b.WriteString(" " + name + " |")
	}
	b.WriteString("\n|---|---|---|---|---|---|\n")
	for _, k := range kinds {
		b.WriteString("| " + k.name + " |")
		for st := drop; st < strategies; st++ {
			b.WriteString(" " + cell(t, h, k.kind, st) + " |")
		}
		b.WriteString("\n")
	}
	b.WriteString("\n¹ Availability only. DESIGN.md §5: \"DoS, timing side channels of an mECall, rollback of sealed\n" +
		"data, architectural side channels, physical attacks — exactly the paper's out-of-scope list (§III-B).\"\n")
	table := b.String()

	const begin, end = "<!-- normal-os matrix: go test ./internal/normal -run TestNormalOSMatrix -update -->\n", "<!-- end normal-os matrix -->"
	path := "../../EXPERIMENTS.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i, j := bytes.Index(doc, []byte(begin)), bytes.Index(doc, []byte(end))
	if i < 0 || j < i {
		t.Fatalf("EXPERIMENTS.md has no %q ... %q block", begin, end)
	}
	if have := string(doc[i+len(begin) : j]); have != table {
		if !*update {
			t.Fatalf("EXPERIMENTS.md's normal-OS matrix is stale (rerun with -update):\n%s\nwant:\n%s", have, table)
		}
		doc = append(append(append([]byte(nil), doc[:i+len(begin)]...), table...), doc[j:]...)
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
