package experiments

import "cronus/internal/sim"

// Experiment is one entry of the evaluation: an id (cronus-bench -exp), a
// title, and the run that regenerates it at the paper's parameters.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

// Catalog is the one list of what the evaluation consists of and at which
// parameters, in the order cronus-bench prints it. cmd/cronus-bench, the root
// BenchmarkExperiment, the goldens under testdata/ and DESIGN.md §4 (checked
// by cronus-doclint) all range over it.
var Catalog = []Experiment{
	{"table1", "Table I: requirement matrix", func() (*Table, error) { return Table1(), nil }},
	{"table2", "Table II: prototype configuration", Table2},
	{"table3", "Table III: TCB lines of code", Table3},
	{"fig7", "Figure 7: Rodinia normalized computation time", rendered(Figure7, RenderFigure7)},
	{"fig8", "Figure 8: DNN training time", rendered(func() ([]Fig8Row, error) { return Figure8(3, 16) }, RenderFigure8)},
	{"fig9", "Figure 9: failover timeline", rendered(Figure9, RenderFigure9)},
	{"fig10a", "Figure 10a: vta-bench throughput", rendered(Figure10a, RenderFigure10a)},
	{"fig10b", "Figure 10b: DNN inference latency", rendered(Figure10b, RenderFigure10b)},
	{"fig11a", "Figure 11a: spatial sharing of one GPU", rendered(func() ([]Fig11aRow, error) { return Figure11a(20 * sim.Millisecond) }, RenderFigure11a)},
	{"fig11b", "Figure 11b: multi-GPU gradient sharing", rendered(func() ([]Fig11bRow, error) { return Figure11b(6) }, RenderFigure11b)},
	{"srpc", "sRPC microbenchmark", rendered(func() ([]SRPCMicroRow, error) { return SRPCMicro(200, 256) }, RenderSRPCMicro)},
	{"recovery", "Recovery time comparison (§VI-D)", rendered(RecoveryTimes, RenderRecovery)},
	{"sharing", "Sharing policies: MPS vs MIG vs temporal vs cold-reboot", rendered(func() ([]SharingPolicyRow, error) { return SharingPolicies(12 * sim.Millisecond) }, RenderSharingPolicies)},
	{"ablate-stream", "Ablation: streaming vs forced-sync sRPC", rendered(AblationStreaming, RenderAblationStreaming)},
	{"ablate-ring", "Ablation: sRPC ring size", rendered(AblationRingSize, RenderAblationRingSize)},
	{"ablate-switch", "Ablation: context-switch cost sensitivity", rendered(AblationSwitchCost, RenderAblationSwitchCost)},
	{"serve", "Serving plane: batch-cap sweep at fixed offered load", rendered(func() ([]ServeRow, error) { return ServeBatchSweep(nil) }, RenderServeBatchSweep)},
	{"attest", "Attestation: ticket resumption vs cold quote verification", rendered(func() ([]AttestRow, error) { return AttestAmortization(nil) }, RenderAttestAmortization)},
	{"chaos", "Chaos soak: fault kinds vs recovery machinery", rendered(func() ([]ChaosRow, error) { return ChaosSweep(5) }, RenderChaosSweep)},
	{"watchdog", "Watchdog hang detection: bound vs measured latency", rendered(HangDetectionSweep, RenderHangDetectionSweep)},
}

// rendered joins a typed figure function and its renderer into a catalogue
// run.
func rendered[R any](run func() (R, error), render func(R) *Table) func() (*Table, error) {
	return func() (*Table, error) {
		rows, err := run()
		if err != nil {
			return nil, err
		}
		return render(rows), nil
	}
}
