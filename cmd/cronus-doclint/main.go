// Command cronus-doclint enforces the documentation bar on the repo's
// API-bearing packages: every linted package must carry a package doc
// comment, and every exported top-level declaration — funcs, methods on
// exported types, types, and each exported const/var (a doc comment on the
// enclosing group counts) — must have a doc comment. Test files are
// exempt. Run on the default package set it also checks the documents:
// DESIGN.md §4 names exactly the ids of experiments.Catalog (`-exp <id>`);
// every DESIGN.md §N[.M] or quoted EXPERIMENTS.md heading cited in a Go file,
// README.md, DESIGN.md, EXPERIMENTS.md or a SKILL.md exists; every package
// under internal/ is named by exactly one `##` heading of DESIGN.md, and
// every internal/ path such a heading names is a package; every Test, Fuzz
// and Benchmark function DESIGN.md, README.md or EXPERIMENTS.md names is
// declared in some _test.go file; every line of BENCH_history.jsonl holds a
// hex commit, an integer seed, a workload of BENCHMARK.json and exactly its
// end-to-end metrics, each positive; and DESIGN.md stays within
// designBudget bytes, which itself stays within budgetSlack of the
// document's size.
//
// It is the `make doc-lint` backend: zero findings exit 0, anything missing
// is listed one per line (file:line) and exits 1.
//
// Usage:
//
//	cronus-doclint                         # lint the default package set
//	cronus-doclint internal/gpu internal/core
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"

	"cronus/internal/experiments"
)

// designBudget is the most bytes DESIGN.md may hold: a change that adds to
// the design document makes room in it first. It only ever goes down, and
// it follows the document down: a budget more than budgetSlack bytes above
// the document's size is a finding too.
const designBudget = 68909

// budgetSlack is how far designBudget may sit above DESIGN.md's size.
const budgetSlack = 1024

// defaultDirs is the package set `make doc-lint` holds to the bar.
var defaultDirs = []string{
	"internal/serve",
	"internal/srpc",
	"internal/spm",
	"internal/chaos",
	"internal/cluster",
	"internal/attest",
	"internal/elastic",
	"internal/dnn",
	"internal/mos",
	"internal/trace",
	"internal/metrics",
	"internal/otrace",
	"internal/slo",
	"internal/sim",
}

func main() {
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	missing := 0
	for _, dir := range dirs {
		missing += lintDir(dir)
	}
	if len(flag.Args()) == 0 {
		design := mustRead("DESIGN.md")
		missing += lintExperimentIndex("DESIGN.md", design)
		for _, f := range lintDocuments(design) {
			fmt.Println(f)
			missing++
		}
	}
	if missing > 0 {
		fmt.Printf("doc-lint: %d findings\n", missing)
		os.Exit(1)
	}
	fmt.Printf("doc-lint: ok (%s)\n", strings.Join(dirs, " "))
}

var expRef = regexp.MustCompile("-exp ([a-z0-9-]+)")

// lintExperimentIndex compares the `-exp <id>` references of the design
// document's §4 with experiments.Catalog and reports every id only one of
// them has, returning the count.
func lintExperimentIndex(path string, doc []byte) int {
	_, section, _ := strings.Cut(string(doc), "\n## 4. ")
	section, _, _ = strings.Cut(section, "\n## ")
	indexed := make(map[string]bool)
	for _, m := range expRef.FindAllStringSubmatch(section, -1) {
		indexed[m[1]] = true
	}
	missing := 0
	for _, e := range experiments.Catalog {
		if !indexed[e.ID] {
			fmt.Printf("%s: §4 has no row regenerated by -exp %s\n", path, e.ID)
			missing++
		}
		delete(indexed, e.ID)
	}
	stale := make([]string, 0, len(indexed))
	for id := range indexed {
		stale = append(stale, id)
	}
	sort.Strings(stale)
	for _, id := range stale {
		fmt.Printf("%s: §4 names -exp %s, which experiments.Catalog lacks\n", path, id)
	}
	return missing + len(stale)
}

// lintDocuments checks the citations of README.md, DESIGN.md,
// EXPERIMENTS.md, every Go file and every skill's SKILL.md, the package
// sections of DESIGN.md, the test names the three documents cite, and the
// benchmark history.
func lintDocuments(design []byte) []string {
	cited := map[string][]string{"DESIGN": headings(design), "EXPERIMENTS": headings(mustRead("EXPERIMENTS.md"))}
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	declared := make(map[string]bool)
	check(filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if err == nil && (strings.HasSuffix(path, ".go") || d.Name() == "SKILL.md") {
			files = append(files, path)
		}
		if err == nil && strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllSubmatch(mustRead(path), -1) {
				declared[string(m[1])] = true
			}
		}
		return err
	}))
	var out []string
	for _, f := range files {
		out = append(out, lintCitations(f, mustRead(f), cited)...)
	}
	for _, f := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		out = append(out, lintTestNames(f, mustRead(f), declared)...)
	}
	out = append(out, lintSections("DESIGN.md", design, packageDirs(os.DirFS("."), "internal"))...)
	out = append(out, lintBudget("DESIGN.md", design, designBudget)...)
	return append(out, lintHistory("BENCH_history.jsonl", mustRead("BENCH_history.jsonl"), mustRead("BENCHMARK.json"))...)
}

// lintBudget reports a document longer than budget bytes, and a budget more
// than budgetSlack bytes above the document, naming the value to lower it to.
func lintBudget(name string, doc []byte, budget int) []string {
	switch {
	case len(doc) > budget:
		return []string{fmt.Sprintf("%s: %d bytes, %d over its budget of %d", name, len(doc), len(doc)-budget, budget)}
	case budget-len(doc) > budgetSlack:
		return []string{fmt.Sprintf("%s: %d bytes, %d under its budget of %d: lower the budget to %d", name, len(doc), budget-len(doc), budget, len(doc))}
	}
	return nil
}

// testFunc matches the declaration of a test, fuzz target or benchmark.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)

// testName matches a test, fuzz target or benchmark named in prose.
var testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)

// lintTestNames reports every test, fuzz target or benchmark text names
// that no _test.go file declares.
func lintTestNames(name string, text []byte, declared map[string]bool) []string {
	var out []string
	for _, ix := range testName.FindAllIndex(text, -1) {
		if fn := string(text[ix[0]:ix[1]]); !declared[fn] {
			out = append(out, fmt.Sprintf("%s:%d: %s is not declared in any _test.go file", name, 1+bytes.Count(text[:ix[0]], []byte("\n")), fn))
		}
	}
	return out
}

// packageDirs lists the directories under root in fsys that hold a non-test
// Go file: the packages DESIGN.md gives a section each.
func packageDirs(fsys fs.FS, root string) []string {
	var dirs []string
	check(fs.WalkDir(fsys, root, func(file string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(file, ".go") && !strings.HasSuffix(file, "_test.go") {
			if dir := path.Dir(file); !slices.Contains(dirs, dir) {
				dirs = append(dirs, dir)
			}
		}
		return err
	}))
	sort.Strings(dirs)
	return dirs
}

// sectionPath matches a backticked internal/ path in a heading.
var sectionPath = regexp.MustCompile("`(internal/[^`]*?)/?`")

// lintSections reports every package of pkgs that no `##` heading of doc
// names in backticks, or that more than one names, and every backticked
// internal/ path in a `##` heading that is not one of pkgs.
func lintSections(name string, doc []byte, pkgs []string) []string {
	named := make(map[string][]int)
	var out []string
	for i, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "## ") {
			continue
		}
		for _, m := range sectionPath.FindAllStringSubmatch(line, -1) {
			if !slices.Contains(pkgs, m[1]) {
				out = append(out, fmt.Sprintf("%s:%d: heading names %s, which is not a package directory", name, i+1, m[1]))
				continue
			}
			named[m[1]] = append(named[m[1]], i+1)
		}
	}
	for _, pkg := range pkgs {
		switch lines := named[pkg]; {
		case len(lines) == 0:
			out = append(out, fmt.Sprintf("%s: no ## heading names `%s`", name, pkg))
		case len(lines) > 1:
			out = append(out, fmt.Sprintf("%s: `%s` is named by the ## headings of lines %v; one section per package", name, pkg, lines))
		}
	}
	return out
}

func mustRead(path string) []byte {
	b, err := os.ReadFile(path)
	check(err)
	return b
}

// check ends the run on an error reading the tree.
func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "doc-lint: %v\n", err)
		os.Exit(1)
	}
}

var numbered = regexp.MustCompile(`^(\d+(?:\.\d+)?)\.?\s+(.*)`)

// headings lists what a citation of a Markdown document may name: "§N" or
// "§N.M" for each numbered heading, and every heading's title.
func headings(doc []byte) []string {
	var out []string
	for _, line := range strings.Split(string(doc), "\n") {
		if title, ok := strings.CutPrefix(line, "#"); ok {
			title = strings.TrimSpace(strings.TrimLeft(title, "#"))
			if m := numbered.FindStringSubmatch(title); m != nil {
				out = append(out, "§"+m[1])
				title = m[2]
			}
			out = append(out, title)
		}
	}
	return out
}

// citation is a document name followed, across spaces, line breaks and Go
// comment markers, by a section number or a quoted heading.
var citation = regexp.MustCompile(`(DESIGN|EXPERIMENTS)\.md(?:\s|//)+(§\d+(?:\.\d+)?|"[^"]{1,160}")`)

// lintCitations reports every citation in text that names no heading of the
// cited document.
func lintCitations(name string, text []byte, cited map[string][]string) []string {
	var out []string
	for _, ix := range citation.FindAllSubmatchIndex(text, -1) {
		doc, want := string(text[ix[2]:ix[3]]), string(text[ix[4]:ix[5]])
		quoted := want[0] == '"'
		if quoted {
			want = strings.Join(strings.Fields(strings.ReplaceAll(strings.Trim(want, `"`), "//", " ")), " ")
		}
		ok := false
		for _, h := range cited[doc] {
			ok = ok || h == want || quoted && strings.HasPrefix(h, want)
		}
		if !ok {
			out = append(out, fmt.Sprintf("%s:%d: %s.md has no heading %q", name, 1+bytes.Count(text[:ix[0]], []byte("\n")), doc, want))
		}
	}
	return out
}

var hexCommit = regexp.MustCompile(`^[0-9a-f]{7,40}$`)

// lintHistory holds every line of the benchmark history — the end-to-end
// medians of one workload's untraced run at one commit and seed — to the
// benchmark's declaration, spec.
func lintHistory(name string, history, spec []byte) []string {
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(spec, &bench); err != nil {
		return []string{"BENCHMARK.json: " + err.Error()}
	}
	var out []string
	for i, line := range strings.Split(strings.TrimSuffix(string(history), "\n"), "\n") {
		bad := func(format string, args ...any) {
			out = append(out, fmt.Sprintf("%s:%d: ", name, i+1)+fmt.Sprintf(format, args...))
		}
		var r struct {
			Commit, Workload string
			Seed             *int64
			Metrics          map[string]float64
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			bad("%v", err)
			continue
		}
		if !hexCommit.MatchString(r.Commit) {
			bad("commit %q is not a hex commit id", r.Commit)
		}
		if r.Seed == nil {
			bad("no integer seed")
		}
		if !slices.ContainsFunc(bench.Workloads, func(w struct{ Name string }) bool { return w.Name == r.Workload }) {
			bad("workload %q is not in BENCHMARK.json", r.Workload)
		}
		for _, m := range bench.EndToEnd {
			if v := r.Metrics[m.Name]; !(v > 0) { // JSON has no NaN or Inf
				bad("%s is %v: missing or not positive", m.Name, v)
			}
		}
		if len(r.Metrics) > len(bench.EndToEnd) {
			bad("metrics beyond the end-to-end names of BENCHMARK.json")
		}
	}
	return out
}

// lintDir parses one package directory (tests excluded) and reports every
// undocumented exported declaration, returning the count.
func lintDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir,
		func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") },
		parser.ParseComments)
	check(err)
	missing := 0
	for _, pkg := range pkgs {
		names := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		hasPkgDoc := false
		for _, name := range names {
			if f := pkg.Files[name]; f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			fmt.Printf("%s: package %s has no package doc comment\n", dir, pkg.Name)
			missing++
		}
		for _, name := range names {
			missing += lintFile(fset, pkg.Files[name])
		}
	}
	return missing
}

// lintFile walks one file's top-level declarations.
func lintFile(fset *token.FileSet, f *ast.File) int {
	missing := 0
	report := func(pos token.Pos, what, name string) {
		fmt.Printf("%s: exported %s %s has no doc comment\n", fset.Position(pos), what, name)
		missing++
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil {
				// Methods are held to the bar only on exported receiver
				// types; an exported method on an internal type is not
				// part of the package surface.
				if base := receiverBase(d.Recv); base != "" && !ast.IsExported(base) {
					continue
				}
				report(d.Pos(), "method", d.Name.Name)
				continue
			}
			report(d.Pos(), "function", d.Name.Name)
		case *ast.GenDecl:
			groupDoc := d.Doc != nil && strings.TrimSpace(d.Doc.Text()) != ""
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && !groupDoc {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					// A group doc ("// Errors returned by ...") or an
					// inline trailing comment documents the whole spec.
					if s.Doc != nil || s.Comment != nil || groupDoc {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							kind := "var"
							if d.Tok == token.CONST {
								kind = "const"
							}
							report(n.Pos(), kind, n.Name)
						}
					}
				}
			}
		}
	}
	return missing
}

// receiverBase extracts the receiver's base type name ("" if anonymous or
// not an identifier).
func receiverBase(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
