// Command bench is the repository benchmark (BENCHMARK.json at the root
// names it). It drives the CRONUS reproduction through its public functions
// only, on five workloads, and prints every metric by name with its unit and
// the clock it is on: virtual (the model's answer, exact for a seed) or host
// (what the simulator costs, noisy). README.md in this directory is the
// reference for what each number means and which layer should move it.
//
//	bash bench/run.sh --workload serve_exec --seed 17 --seconds 10 --trace 0
//	bash bench/run.sh                 # every workload, both runs
//	bash bench/run.sh -selfcheck      # the full set twice, compared
//
// The last line of a run's output is one JSON object
// {correct, attempted, failed, metrics}; a failed output check makes the
// exit status non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cronus/internal/metrics"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(e *env) error
}

var workloads = []workload{
	{"paper_figs", "the reproduction itself: core/mos/gpu/npu/dnn/baseline and streamed sRPC do the work, the serving layers none", runPaperFigs},
	{"srpc_calls", "mECalls on one established stream: srpc, spm views, hw translate and sim handshakes carry it, devices and serve idle", runSrpcCalls},
	{"serve_exec", "executed serving plane: every request pushes ring slots, so serve, srpc and spm share the cost", serveExec.run},
	{"serve_flow", "sharded flow-model plane: serve/sharded and the sharded sim kernel dominate, srpc/spm/hw idle in steady state", serveFlow.run},
	{"serve_cluster_faults", "two-node cluster through slow link, migration, node crash and attest storm: recovery code runs beside steady state", serveClusterFaults.run},
}

const outDir = "out" // span files, relative to the bench directory

// runWorkload runs one workload once, untraced (end-to-end metrics) or
// traced (per-layer metrics).
func runWorkload(w workload, seed int64, seconds float64, minRepeats int, traced bool) (*result, error) {
	res := &result{Workload: w.name, Traced: traced, Metrics: make(map[string]float64), Samples: make(map[string][]float64)}
	e := &env{seed: seed, seconds: seconds, minRepeats: minRepeats, res: res}
	metrics.Default.Reset()
	metrics.Default.Disable()
	specs := endToEnd
	if traced {
		e.tr = newTracer(w.name)
		specs = perLayer
	}
	if err := w.run(e); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if !traced {
		// Host times leave in reference-box nanoseconds (host.go, calibrate).
		f := e.speedFactor()
		res.Metrics["setup_s"] *= f
		res.Metrics["host_ns_per_op"] *= f
		res.note("machine speed: median of %d calibration bursts %.3f ms against %.3f ms nominal; host times scaled by %.4f",
			len(e.cals), median(e.cals)/1e6, calNominalNS/1e6, f)
	}
	if traced {
		metrics.Default.Disable()
		if err := runLayerLoops(e.tr, res); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		path, err := e.tr.flush(outDir, seed)
		if err != nil {
			return nil, err
		}
		res.note("spans: %d written to %s", len(e.tr.spans), path)
	}
	// The run reports exactly the declared vocabulary: a layer the
	// workload never entered reads 0, an end-to-end metric must exist.
	out := make(map[string]float64, len(specs))
	for _, s := range specs {
		v, ok := res.Metrics[s.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", w.name, s.Name)
		}
		out[s.Name] = v
	}
	res.Metrics = out
	return res, nil
}

// jsonMetric and jsonResult are the machine-readable form; the names are
// the printed names.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Workload  string                `json:"workload,omitempty"`
	Traced    *bool                 `json:"traced,omitempty"`
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// jsonLine renders a result; labelled adds the workload and run kind, for
// output that holds more than one result.
func jsonLine(res *result, labelled bool) (string, error) {
	jr := jsonResult{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]jsonMetric)}
	if labelled {
		jr.Workload, jr.Traced = res.Workload, &res.Traced
	}
	for _, s := range specsFor(res.Traced) {
		jr.Metrics[s.Name] = jsonMetric{Value: res.Metrics[s.Name], Unit: s.Unit}
	}
	b, err := json.Marshal(jr)
	return string(b), err
}

// printTable is the human-readable form: one line per metric with its
// clock, unit, direction and bound, then the notes and output checks.
func printTable(res *result) {
	kind := "end-to-end (untraced run)"
	if res.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("== %s: %s ==\n", res.Workload, kind)
	for _, s := range specsFor(res.Traced) {
		bound := ""
		if s.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", s.Bound*100)
		}
		fmt.Printf("%-34s %18.6f %-6s [%-7s clock, %s is better]%s\n",
			s.Name, res.Metrics[s.Name], s.Unit, s.Clock, s.Better, bound)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("%-34s %18.6f %-6s [%d failed of %d attempted]\n", "failed_frac", frac, "ratio", res.Failed, res.Attempted)
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
	for _, c := range res.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Printf("check %s %s (%s)\n", verdict, c.Name, c.Detail)
	}
}

func main() {
	name := flag.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 17, "workload seed: inputs are a pure function of it (23 is the held-out seed)")
	seconds := flag.Float64("seconds", 10, "how long the timed host-clock section of a run measures")
	trace := flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
	repeats := flag.Int("repeats", 0, "minimum timed repeats (0: the workload's own minimum)")
	jsonOnly := flag.Bool("json", false, "print only the JSON result lines")
	selfcheck := flag.Bool("selfcheck", false, "run the full set twice and compare it against the declared bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	var kinds []bool
	switch *trace {
	case 0:
		kinds = []bool{false}
	case 1:
		kinds = []bool{true}
	case -1:
		kinds = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0, 1 or -1\n")
		os.Exit(2)
	}

	if *selfcheck {
		ok, err := runSelfcheck(selected, *seed, *seconds, *repeats)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	labelled := len(selected)*len(kinds) > 1
	allCorrect := true
	for _, w := range selected {
		for _, traced := range kinds {
			res, err := runWorkload(w, *seed, *seconds, *repeats, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			if !*jsonOnly {
				printTable(res)
			}
			line, err := jsonLine(res, labelled)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			fmt.Println(line)
			allCorrect = allCorrect && res.correct()
		}
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}
