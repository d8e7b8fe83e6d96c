package chaos

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current harness output")

// TestGoldenReports byte-compares the campaign report plus every per-seed
// Report() against files captured before the two harnesses were merged: the
// five `make chaos` soaks and one traced seed whose quarantine dumps a flight
// recorder ring. The harness is the checker, so its output is the oracle —
// regenerate (go test ./internal/chaos -run TestGoldenReports -update) only
// for a change that is meant to alter what a seed does or how it is reported.
func TestGoldenReports(t *testing.T) {
	cl := clusterOpts()
	for _, c := range []struct {
		name  string
		base  int64
		seeds int
		o     Options
	}{
		{"default", 1, 3, Options{}},
		{"supervision", 1, 2, Options{Kinds: []Kind{KindPersistentHang, KindCrashLoop}, Faults: 2}},
		{"cluster", 1, 3, cl},
		{"attest", 1, 3, withKinds(cl, KindAttestStorm, KindStaleMeasurement)},
		{"migration", 1, 3, withKinds(cl, migrationKinds...)},
		{"trace", 9, 1, Options{Kinds: []Kind{KindCrashLoop}, Faults: 1, Trace: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cr, err := RunCampaign(c.base, c.seeds, c.o)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			b.WriteString(cr.Report())
			for _, rr := range cr.Runs {
				fmt.Fprintf(&b, "--- seed %d ---\n%s", rr.Seed, rr.Report())
			}
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("report drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}
