package main

import (
	"strings"
	"testing"
	"testing/fstest"
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

func TestBudget(t *testing.T) {
	if got := lintBudget("d", []byte("1234"), 4); len(got) != 0 {
		t.Fatalf("a document at its budget: %v", got)
	}
	got := lintBudget("d", []byte("12345"), 4)
	if len(got) != 1 || got[0] != "d: 5 bytes, 1 over its budget of 4" {
		t.Fatalf("a document one byte over: %v", got)
	}
	doc := []byte(strings.Repeat("x", 100))
	if got := lintBudget("d", doc, 100+budgetSlack); len(got) != 0 {
		t.Fatalf("a budget at the slack above its document: %v", got)
	}
	got = lintBudget("d", doc, 101+budgetSlack)
	if want := "d: 100 bytes, 1025 under its budget of 1125: lower the budget to 100"; len(got) != 1 || got[0] != want {
		t.Fatalf("a budget one byte past the slack: %v, want %q", got, want)
	}
}

func TestPackageSections(t *testing.T) {
	fsys := fstest.MapFS{
		"internal/a/a.go":              {},
		"internal/a/a_test.go":         {},
		"internal/b/c/c.go":            {},
		"internal/onlytests/x_test.go": {},
		"internal/b/README.md":         {},
		"internal/a/testdata/m/m.go":   {},
	}
	pkgs := packageDirs(fsys, "internal")
	if strings.Join(pkgs, " ") != "internal/a internal/b/c" {
		t.Fatalf("package directories %v, want internal/a internal/b/c", pkgs)
	}
	good := "# D\n\n## 1. Scope\n\n## 2. `internal/a`\n\n### 2.1 `internal/b/c` is named in a subsection only\n\n## 3. `internal/b/c/` and nothing else\n"
	if got := lintSections("d", []byte(good), pkgs); len(got) != 0 {
		t.Fatalf("one section per package: %v", got)
	}
	for _, tc := range []struct{ doc, finding string }{
		{"## 1. `internal/a`\n", "d: no ## heading names `internal/b/c`"},
		{"## 1. `internal/a`, `internal/b/c`\n## 2. `internal/a` again\n", "d: `internal/a` is named by the ## headings of lines [1 2]; one section per package"},
		{"## 1. `internal/a`, `internal/b/c`\n## 2. `internal/b`\n", "d:2: heading names internal/b, which is not a package directory"},
		{"## 1. `internal/a`, `internal/b/c`, `internal/onlytests`\n", "d:1: heading names internal/onlytests, which is not a package directory"},
	} {
		if got := lintSections("d", []byte(tc.doc), pkgs); len(got) != 1 || got[0] != tc.finding {
			t.Errorf("%q: findings %q, want %q", tc.doc, got, tc.finding)
		}
	}
}

func TestCitedTestsExist(t *testing.T) {
	declared := make(map[string]bool)
	src := "package x\n\nfunc TestA(t *testing.T) {}\nfunc FuzzB(f *testing.F) {}\nfunc BenchmarkC(b *testing.B) {}\nfunc helperTestD() {}\n"
	for _, m := range testFunc.FindAllStringSubmatch(src, -1) {
		declared[m[1]] = true
	}
	text := "Tests run: TestA, FuzzB and `BenchmarkC/sub`; a Testbed is prose.\nTestD and\nFuzzE are not.\n"
	got := lintTestNames("r", []byte(text), declared)
	want := []string{"r:2: TestD is not declared in any _test.go file", "r:3: FuzzE is not declared in any _test.go file"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
