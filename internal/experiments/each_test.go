package experiments

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cronus/internal/core"
	"cronus/internal/metrics"
	"cronus/internal/sim"
)

// atWidth sets GOMAXPROCS for the rest of the test.
func atWidth(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// goid is the calling goroutine's id, from the header of its stack trace.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)] // "goroutine 12 [running]:"
	return strings.Fields(string(buf))[1]
}

// TestEachResultsInInputOrder finishes the cells in exactly the reverse of
// their input order — cell i returns only after cell i+1 has — and requires
// each result at its own index.
func TestEachResultsInInputOrder(t *testing.T) {
	const n = 4
	atWidth(t, n)
	done := make([]chan struct{}, n+1)
	for i := range done {
		done[i] = make(chan struct{})
	}
	close(done[n])
	out := make([]int, n)
	var finished []int // appended in completion order; the chain serializes it
	err := each(n, func(i int) error {
		<-done[i+1]
		out[i] = i * i
		finished = append(finished, i)
		close(done[i])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 4, 9}; !reflect.DeepEqual(out, want) {
		t.Errorf("results %v, want %v", out, want)
	}
	if want := []int{3, 2, 1, 0}; !reflect.DeepEqual(finished, want) {
		t.Errorf("completion order %v, want %v", finished, want)
	}
}

// TestEachFirstErrorInInputOrder: cell 5 fails first on the wall clock — cell
// 1 does not return until it has — and cell 1's error is still the one
// returned.
func TestEachFirstErrorInInputOrder(t *testing.T) {
	atWidth(t, 4)
	err1, err5 := errors.New("cell 1"), errors.New("cell 5")
	failed5 := make(chan struct{})
	ran := make([]bool, 6)
	err := each(6, func(i int) error {
		ran[i] = true
		switch i {
		case 1:
			<-failed5
			return err1
		case 5:
			close(failed5)
			return err5
		}
		return nil
	})
	if err != err1 {
		t.Errorf("each returned %v, want %v", err, err1)
	}
	for i, r := range ran {
		if !r {
			t.Errorf("cell %d never ran", i)
		}
	}
}

// TestEachPanicSurfacesOnCaller: a panicking cell does not crash the process
// from a worker goroutine; the caller gets the panic, naming the cell, after
// the other cells have finished.
func TestEachPanicSurfacesOnCaller(t *testing.T) {
	atWidth(t, 4)
	ran := make([]bool, 6)
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("each returned normally past a panicking cell")
		}
		if msg := fmt.Sprint(v); !strings.Contains(msg, "boom") || !strings.Contains(msg, "cell 2") {
			t.Errorf("re-raised panic %q names neither the value nor the cell", msg)
		}
		for i, r := range ran {
			if !r {
				t.Errorf("cell %d had not run when the panic surfaced", i)
			}
		}
	}()
	_ = each(6, func(i int) error {
		ran[i] = true
		if i == 2 {
			panic("boom")
		}
		return nil
	})
}

// TestEachSerialOnCallingGoroutine: at width 1, and at any width while the
// process-wide metrics registry records, each is a plain loop — every cell on the
// caller's goroutine, in input order, stopping at the first error.
func TestEachSerialOnCallingGoroutine(t *testing.T) {
	legs := []struct {
		name  string
		width int
		on    func()
		off   func()
	}{
		{"width 1", 1, func() {}, func() {}},
		{"metrics recording", 4, metrics.Default.Enable, metrics.Default.Disable},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			atWidth(t, leg.width)
			leg.on()
			defer leg.off()
			caller := goid()
			stop := errors.New("stop")
			var order []int
			err := each(6, func(i int) error {
				if g := goid(); g != caller {
					t.Errorf("cell %d ran on goroutine %s, the caller is %s", i, g, caller)
				}
				order = append(order, i)
				if i == 3 {
					return stop
				}
				return nil
			})
			if err != stop {
				t.Errorf("each returned %v, want %v", err, stop)
			}
			if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(order, want) {
				t.Errorf("cells ran in order %v, want %v", order, want)
			}
		})
	}
}

// TestEachLeavesNoGoroutines runs real platforms side by side and requires
// the goroutine count back at its baseline once each has returned.
func TestEachLeavesNoGoroutines(t *testing.T) {
	atWidth(t, 4)
	base := runtime.NumGoroutine()
	err := each(8, func(int) error {
		return core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
			_, err := pl.NewSession(p, "leak")
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// A worker's wg.Done runs just before its goroutine exits.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("%d goroutines after each returned, %d before", g, base)
	}
}

// figureSet is every grid the package runs through each, as typed rows at
// parameters small enough to run twice: rendered text rounds, typed rows do
// not. (The rendered text, at the paper's parameters, is the catalogue's.)
type figureSet struct {
	Fig7      []Fig7Row
	Fig8      []Fig8Row
	Fig10a    []Fig10aRow
	Fig10b    []Fig10bRow
	Fig11a    []Fig11aRow
	Fig11b    []Fig11bRow
	Table2    *Table
	Recovery  []RecoveryRow
	Streaming []AblationStreamingRow
	Ring      []AblationRingRow
	Switch    []AblationSwitchRow
	Sharing   []SharingPolicyRow
	Attest    []AttestRow
	Serve     []ServeRow
	Hang      []HangDetectionRow
	Chaos     []ChaosRow
}

// collect runs one figure and returns its rows.
func collect[R any](t *testing.T, name string, run func() (R, error)) R {
	t.Helper()
	rows, err := run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rows
}

func runFigureSet(t *testing.T) figureSet {
	t.Helper()
	return figureSet{
		Fig7:      collect(t, "fig7", Figure7),
		Fig8:      collect(t, "fig8", func() ([]Fig8Row, error) { return Figure8(1, 4) }),
		Fig10a:    collect(t, "fig10a", Figure10a),
		Fig10b:    collect(t, "fig10b", Figure10b),
		Fig11a:    collect(t, "fig11a", func() ([]Fig11aRow, error) { return Figure11a(4 * sim.Millisecond) }),
		Fig11b:    collect(t, "fig11b", func() ([]Fig11bRow, error) { return Figure11b(1) }),
		Table2:    collect(t, "table2", Table2),
		Recovery:  collect(t, "recovery", RecoveryTimes),
		Streaming: collect(t, "ablation streaming", AblationStreaming),
		Ring:      collect(t, "ablation ring", AblationRingSize),
		Switch:    collect(t, "ablation switch", AblationSwitchCost),
		Sharing:   collect(t, "sharing", func() ([]SharingPolicyRow, error) { return SharingPolicies(3 * sim.Millisecond) }),
		Attest:    collect(t, "attest", func() ([]AttestRow, error) { return AttestAmortization([]int{2, 4}) }),
		Serve:     collect(t, "serve", func() ([]ServeRow, error) { return ServeBatchSweep(nil) }),
		Hang:      collect(t, "hang", HangDetectionSweep),
		Chaos:     collect(t, "chaos", func() ([]ChaosRow, error) { return ChaosSweep(1) }),
	}
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current catalogue output")

// goldenSkip is the one catalogue entry without a golden file: Table III
// counts this repository's source lines, so it moves with every PR.
const goldenSkip = "table3"

// checkGoldens runs every catalogue entry at the current GOMAXPROCS and
// compares its rendered table with testdata/<id>.golden — the paper's numbers
// as this repository reproduces them. Regenerate (go test ./internal/experiments
// -run TestFiguresIdenticalAtAnyWidth -update) only for a change that is meant
// to move a virtual number or a rendered byte.
func checkGoldens(t *testing.T) {
	t.Helper()
	for _, e := range Catalog {
		if e.ID == goldenSkip {
			continue
		}
		tbl, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		path := filepath.Join("testdata", e.ID+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(tbl.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := tbl.String(); got != string(want) {
			t.Errorf("GOMAXPROCS %d: %s drifted from %s:\n--- got ---\n%s--- want ---\n%s", runtime.GOMAXPROCS(0), e.ID, path, got, want)
		}
	}
}

// TestFiguresIdenticalAtAnyWidth: the same typed rows, and the catalogue's
// rendered bytes equal to the goldens, whether the cells of every grid run one
// after another or four at a time.
func TestFiguresIdenticalAtAnyWidth(t *testing.T) {
	atWidth(t, 1)
	serial := runFigureSet(t)
	checkGoldens(t)
	runtime.GOMAXPROCS(4)
	wide := runFigureSet(t)
	checkGoldens(t)
	sv, wv := reflect.ValueOf(serial), reflect.ValueOf(wide)
	for i := 0; i < sv.NumField(); i++ {
		if !reflect.DeepEqual(sv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s: typed rows differ between GOMAXPROCS 1 and 4", sv.Type().Field(i).Name)
		}
	}
}

// TestCatalogGoldensComplete: every golden file belongs to a catalogue id, so
// a renamed or removed experiment cannot leave a stale pin behind.
func TestCatalogGoldensComplete(t *testing.T) {
	ids := make(map[string]bool)
	for _, e := range Catalog {
		if ids[e.ID] {
			t.Errorf("catalogue lists %s twice", e.ID)
		}
		ids[e.ID] = true
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if id := strings.TrimSuffix(filepath.Base(f), ".golden"); !ids[id] || id == goldenSkip {
			t.Errorf("%s pins no catalogue entry", f)
		}
	}
}

// TestFiguresSerialWhileRecording: with metrics.Default recording, a grid runs
// its cells in input order whatever the width, so two runs leave byte-identical
// snapshots.
func TestFiguresSerialWhileRecording(t *testing.T) {
	atWidth(t, 4)
	metrics.Default.Enable()
	defer func() {
		metrics.Default.Disable()
		metrics.Default.Reset()
	}()
	snapshot := func() []byte {
		metrics.Default.Reset()
		if _, err := Figure7(); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := metrics.Default.Snapshot().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	first, second := snapshot(), snapshot()
	if !bytes.Equal(first, second) {
		t.Errorf("two recorded runs of Figure7 left different snapshots (%d and %d bytes)", len(first), len(second))
	}
	if len(first) < 100 {
		t.Errorf("snapshot of a recorded Figure7 run is only %d bytes: nothing was recorded", len(first))
	}
}
