package main

import (
	"strings"
	"testing"
)

// The literals below spell the document names in two pieces so that this
// file's own source holds no citation for the linter to resolve.
const (
	designDoc      = "DESIGN" + ".md"
	experimentsDoc = "EXPERIMENTS" + ".md"
)

func TestCitationsResolve(t *testing.T) {
	cited := map[string][]string{
		"DESIGN":      headings([]byte("# Design\n\n## 4. Index\n\n### 3.1 Machine\n\n### 13.2 Flow model\n")),
		"EXPERIMENTS": headings([]byte("# Experiments\n\n## Chaos soak — fault-injection invariants (§10)\n")),
	}
	src := "// " + designDoc + " §4, " + designDoc + " §3.1 and " + designDoc + "\n" +
		"// §13.2 resolve, as does " + experimentsDoc + "\n// \"Chaos soak —\n// fault-injection\".\n" +
		"// " + designDoc + " §9 and " + experimentsDoc + " \"Kernel budget\" name nothing.\n"
	got := lintCitations("x.go", []byte(src), cited)
	want := []string{
		`x.go:5: DESIGN.md has no heading "§9"`,
		`x.go:5: EXPERIMENTS.md has no heading "Kernel budget"`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestHistoryLines(t *testing.T) {
	spec := []byte(`{"workloads":[{"name":"w"}],"end_to_end":[{"name":"a"},{"name":"b"}]}`)
	const good = `{"commit":"251599f","seed":17,"workload":"w","metrics":{"a":0.5,"b":2e9}}`
	if got := lintHistory("h", []byte(good+"\n"), spec); len(got) != 0 {
		t.Fatalf("a well-formed row: %v", got)
	}
	for _, tc := range []struct{ line, finding string }{
		{`{"commit":"HEAD","seed":17,"workload":"w","metrics":{"a":1,"b":1}}`, `commit "HEAD" is not a hex commit id`},
		{`{"commit":"c0edf98","seed":17.5,"workload":"w","metrics":{"a":1,"b":1}}`, `cannot unmarshal number 17.5`},
		{`{"commit":"c0edf98","workload":"w","metrics":{"a":1,"b":1}}`, `no integer seed`},
		{`{"commit":"c0edf98","seed":17,"workload":"v","metrics":{"a":1,"b":1}}`, `workload "v" is not in BENCHMARK.json`},
		{`{"commit":"c0edf98","seed":17,"workload":"w","metrics":{"a":1}}`, `b is 0: missing or not positive`},
		{`{"commit":"c0edf98","seed":17,"workload":"w","metrics":{"a":1,"b":1,"c":1}}`, `metrics beyond the end-to-end names`},
		{`{"commit":"c0edf98","seed":17,"workload":"w","metrics":{"a":-2,"b":1}}`, `a is -2: missing or not positive`},
		{`{"commit":"c0edf98","seed":17,"workload":"w","metrics":{"a":1,"b":1e999}}`, `cannot unmarshal number 1e999`},
		{good + `{}`, `invalid character '{' after top-level value`},
		{``, `unexpected end of JSON input`},
	} {
		got := lintHistory("h", []byte(good+"\n"+tc.line+"\n"), spec)
		if len(got) != 1 || !strings.Contains(got[0], tc.finding) {
			t.Errorf("line %s: findings %q, want one containing %q", tc.line, got, tc.finding)
		}
	}
}
