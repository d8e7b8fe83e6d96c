package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cronus/internal/core"
	"cronus/internal/metrics"
	"cronus/internal/sim"
	"cronus/internal/trace"
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

// TestEachSerialOnCallingGoroutine: at width 1, and at any width while a
// process-wide recorder is on, each is a plain loop — every cell on the
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
		{"trace recording", 4, trace.Default.Enable, trace.Default.Disable},
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

// figureSet is every grid the package runs through each, as typed rows and as
// rendered text.
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
	Rendered  string
}

// collect runs one figure, appends its rendered table to text and returns its
// rows.
func collect[R any](t *testing.T, text *bytes.Buffer, name string, run func() (R, error), render func(R) *Table) R {
	t.Helper()
	rows, err := run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	text.WriteString(render(rows).String())
	return rows
}

func runFigureSet(t *testing.T) figureSet {
	t.Helper()
	var text bytes.Buffer
	s := figureSet{
		Fig7:      collect(t, &text, "fig7", Figure7, RenderFigure7),
		Fig8:      collect(t, &text, "fig8", func() ([]Fig8Row, error) { return Figure8(1, 4) }, RenderFigure8),
		Fig10a:    collect(t, &text, "fig10a", Figure10a, RenderFigure10a),
		Fig10b:    collect(t, &text, "fig10b", Figure10b, RenderFigure10b),
		Fig11a:    collect(t, &text, "fig11a", func() ([]Fig11aRow, error) { return Figure11a(4 * sim.Millisecond) }, RenderFigure11a),
		Fig11b:    collect(t, &text, "fig11b", func() ([]Fig11bRow, error) { return Figure11b(1) }, RenderFigure11b),
		Table2:    collect(t, &text, "table2", Table2, func(tbl *Table) *Table { return tbl }),
		Recovery:  collect(t, &text, "recovery", RecoveryTimes, RenderRecovery),
		Streaming: collect(t, &text, "ablation streaming", AblationStreaming, RenderAblationStreaming),
		Ring:      collect(t, &text, "ablation ring", AblationRingSize, RenderAblationRingSize),
		Switch:    collect(t, &text, "ablation switch", AblationSwitchCost, RenderAblationSwitchCost),
		Sharing:   collect(t, &text, "sharing", func() ([]SharingPolicyRow, error) { return SharingPolicies(3 * sim.Millisecond) }, RenderSharingPolicies),
		Attest:    collect(t, &text, "attest", func() ([]AttestRow, error) { return AttestAmortization([]int{2, 4}) }, RenderAttestAmortization),
		Serve:     collect(t, &text, "serve", func() ([]ServeRow, error) { return ServeBatchSweep(nil) }, RenderServeBatchSweep),
		Hang:      collect(t, &text, "hang", HangDetectionSweep, RenderHangDetectionSweep),
	}
	s.Rendered = text.String()
	return s
}

// TestFiguresIdenticalAtAnyWidth: the same rows and the same rendered bytes
// whether the cells of every grid run one after another or four at a time.
func TestFiguresIdenticalAtAnyWidth(t *testing.T) {
	atWidth(t, 1)
	serial := runFigureSet(t)
	runtime.GOMAXPROCS(4)
	wide := runFigureSet(t)
	if serial.Rendered != wide.Rendered {
		t.Errorf("rendered tables differ between GOMAXPROCS 1 and 4:\n--- 1 ---\n%s--- 4 ---\n%s", serial.Rendered, wide.Rendered)
	}
	sv, wv := reflect.ValueOf(serial), reflect.ValueOf(wide)
	for i := 0; i < sv.NumField(); i++ {
		if !reflect.DeepEqual(sv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s: typed rows differ between GOMAXPROCS 1 and 4", sv.Type().Field(i).Name)
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
