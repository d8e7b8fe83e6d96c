package experiments

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"cronus/internal/sim"
)

// sharedGlobals is every package-level variable under internal/ that two
// simulations alive in one process can both reach, each with the reason it is
// safe for each to run them side by side. A new one is a decision, not an
// accident: TestNoUnlistedPackageState fails until it is listed here (DESIGN.md
// §26 carries the same table).
var sharedGlobals = map[string]string{
	"metrics.Default": "the process-wide registry: each runs serially while it records; disabled, instruments drop every write",

	"enclave.cpuLibRegistry": "filled at package init (core's session runtime, test libraries); read-only once a kernel runs",
	"gpu.registry":           "filled at package init, replaced only by tests and examples while no simulation runs",

	"wire.recycleHook": "buffer-poisoning hook of one test at a time",

	"experiments.Catalog":    "read-only table",
	"experiments.GPUSystems": "read-only table",
	"experiments.NPUSystems": "read-only table",
	"experiments.ShareModes": "read-only table",
	"otrace.StageOrder":      "read-only table",
	"chaos.taxonomy":         "read-only table",
	"srpc.noopEnd":           "shared do-nothing closure",
	"trace.noop":             "shared do-nothing closure",
}

var sentinelName = regexp.MustCompile(`^[Ee]rr[A-Z]`)

// unsafeFile is the one non-test file under internal/ that may import unsafe:
// the float32 → byte view of device memory (DESIGN.md §15). A second cast
// is a decision too — it goes through that file or moves this line.
const unsafeFile = "internal/gpu/view.go"

// asmFile is the one assembly file under internal/: the matmul row update's
// SSE2 body (DESIGN.md §15), held bit for bit to its Go twin by
// gpu.TestRowTermsMatchPortable. Memory the assembly reads is proven in
// bounds on the Go side; a second body is a decision too — it moves this line.
const asmFile = "internal/gpu/rowterms_amd64.s"

// TestNoUnlistedPackageState walks every non-test file under internal/ and
// fails on a package-level var that is not a blank interface assertion, an
// Err* sentinel built by errors.New or fmt.Errorf, a metrics.Default instrument
// handle, or an entry of sharedGlobals. Without type information any other
// var counts — maps, slices, funcs, pointers, mutexes and interfaces are the
// ones that bite, and a package-level scalar belongs in a const. The same walk
// fails on any file but unsafeFile importing unsafe, and on any .s file but
// asmFile.
func TestNoUnlistedPackageState(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	found := make(map[string]bool)
	err = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".s") {
			if rel, _ := filepath.Rel(root, path); filepath.ToSlash(rel) == asmFile {
				found[asmFile] = true
			} else {
				t.Errorf("%s: assembly under internal/ is %s's alone", path, asmFile)
			}
			return nil
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value != `"unsafe"` {
				continue
			}
			if rel, _ := filepath.Rel(root, path); filepath.ToSlash(rel) == unsafeFile {
				found[unsafeFile] = true
			} else {
				t.Errorf("%s imports unsafe: reinterpreting memory is %s's job alone", fset.Position(imp.Pos()), unsafeFile)
			}
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					var init string
					if i < len(vs.Values) {
						init = calleeOf(vs.Values[i])
					}
					qualified := f.Name.Name + "." + name.Name
					switch {
					case name.Name == "_":
					case sentinelName.MatchString(name.Name) && (init == "errors.New" || init == "fmt.Errorf"):
					case init == "metrics.Default.Counter" || init == "metrics.Default.Gauge" || init == "metrics.Default.Histogram":
					case sharedGlobals[qualified] != "":
						found[qualified] = true
					default:
						t.Errorf("%s: package-level var %s is state every simulation in the process shares: "+
							"move it onto the instance that owns it, or list it in sharedGlobals with the reason it is safe",
							fset.Position(name.Pos()), qualified)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range sharedGlobals {
		if !found[name] {
			t.Errorf("sharedGlobals lists %s, which no longer exists: delete the entry", name)
		}
	}
	if !found[unsafeFile] {
		t.Errorf("%s no longer imports unsafe: delete the exception", unsafeFile)
	}
	if !found[asmFile] {
		t.Errorf("%s is gone: delete the exception", asmFile)
	}
}

// costFile defines sim.CostModel, its calibration and the helpers that price
// an operation from its fields.
const costFile = "internal/sim/cost.go"

// TestEveryCostIsCharged fails on a sim.CostModel field that no non-test file
// of the module (bench/, its own module, aside) outside costFile reads, either
// directly or through a costFile helper that reads it (Memcpy reads
// MemcpyPerByte, SyncRPCSwitch ContextSwitchS2, ...). A constant nothing
// charges prices nothing: it is calibration with no operation behind it, and
// cannot carry the source tag every constant owes (ROADMAP item 3). Without
// type information any selector with a field's or helper's name counts as a
// read, except the target of a plain assignment.
func TestEveryCostIsCharged(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	cf, err := parser.ParseFile(fset, filepath.Join(root, costFile), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	helperReads := make(map[string][]string)
	for _, decl := range cf.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				helperReads[fd.Name.Name] = append(helperReads[fd.Name.Name], sel.Sel.Name)
			}
			return true
		})
	}
	read := make(map[string]bool)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (rel == "bench" || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || rel == costFile {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		written := make(map[ast.Node]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN {
					for _, lhs := range n.Lhs {
						written[lhs] = true
					}
				}
			case *ast.SelectorExpr:
				if !written[n] {
					read[n.Sel.Name] = true
					for _, field := range helperReads[n.Sel.Name] {
						read[field] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var uncharged []string
	fields := reflect.TypeOf(sim.CostModel{})
	for i := 0; i < fields.NumField(); i++ {
		if name := fields.Field(i).Name; !read[name] {
			uncharged = append(uncharged, name)
		}
	}
	if len(uncharged) > 0 {
		t.Errorf("sim.CostModel fields no operation charges: %s — charge each where its operation happens, "+
			"or delete it from %s", strings.Join(uncharged, ", "), costFile)
	}
}

// bootOwners names, for each call that brings a machine up or tears a
// simulation down, the one package whose non-test files may make it: core
// boots the platform (device tree, SPM, partitions, mOSes, dispatcher) and
// sim owns the kernel lifecycle (sim.Run). Kernel.Shutdown is the only
// Shutdown method in the tree, so any .Shutdown() call is one.
var bootOwners = map[string]string{
	"spm.Boot":             "internal/core",
	"mos.Boot":             "internal/core",
	"normal.NewDispatcher": "internal/core",
	"sim.NewKernel":        "internal/sim",
	"Shutdown":             "internal/sim",
}

// TestOnePlatformOneLifecycle walks every non-test file of the module (bench/,
// its own module, aside) and fails on a call from bootOwners made outside its
// owning package: a second hand-built platform or a hand-copied kernel
// lifecycle drifts from the one the product runs, and a test on it certifies a
// path that does not ship. Boot through core.Run / core.BuildPlatform, and run
// simulations through sim.Run.
func TestOnePlatformOneLifecycle(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (rel == "bench" || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgDir := filepath.ToSlash(filepath.Dir(rel))
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name string
			switch fn := call.Fun.(type) {
			case *ast.SelectorExpr:
				if fn.Sel.Name == "Shutdown" {
					name = "Shutdown"
				} else {
					name = calleeOf(call)
				}
			case *ast.Ident:
				name = f.Name.Name + "." + fn.Name // a call inside the defining package
			}
			if owner, ok := bootOwners[name]; ok && pkgDir != owner {
				t.Errorf("%s: %s outside %s: boot through core.Run / core.BuildPlatform and simulate through sim.Run",
					fset.Position(call.Pos()), name, owner)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// calleeOf returns the dotted name of the function a call expression calls
// ("errors.New", "metrics.Default.Counter"), or "" for anything else.
func calleeOf(e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	var dotted func(ast.Expr) string
	dotted = func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.Ident:
			return e.Name
		case *ast.SelectorExpr:
			return fmt.Sprintf("%s.%s", dotted(e.X), e.Sel.Name)
		}
		return ""
	}
	return dotted(call.Fun)
}

// lockSites is every import of sync or sync/atomic in a non-test file of
// internal/hw, internal/spm, internal/sim, internal/trace and internal/otrace,
// as "file: what", with the second goroutine that justifies it. It is empty: a
// machine, its SPM and the trace collector and flight recorder attached to
// its kernel belong to one sim.Kernel, a kernel is one event domain that runs
// one of its processes at a time, and two live platforms share nothing below
// metrics (DESIGN.md §26).
var lockSites = map[string]string{}

// TestNoLocksUnderOneKernel fails on a lock or an atomic in the kernel, the
// simulated memory system or the tracer that lockSites does not list: the data
// path crosses these packages on every event, ring word and hook, and a lock
// nobody can contend is host time (the sim, hw and spm rows of EXPERIMENTS.md "Per-layer
// budgets") and a false statement about who shares the state.
func TestNoLocksUnderOneKernel(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	found := make(map[string]bool)
	for _, pkg := range []string{"internal/hw", "internal/spm", "internal/sim", "internal/trace", "internal/otrace"} {
		files, err := filepath.Glob(filepath.Join(root, pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			rel := pkg + "/" + filepath.Base(path)
			for _, imp := range f.Imports {
				what := strings.Trim(imp.Path.Value, `"`)
				if what != "sync" && what != "sync/atomic" {
					continue
				}
				if site := rel + ": " + what; lockSites[site] != "" {
					found[site] = true
				} else {
					t.Errorf("%s: %s imports %s: exactly one goroutine runs a kernel at a time, so nothing here can contend — "+
						"drop it, or list %q in lockSites with the goroutine it guards against", fset.Position(imp.Pos()), rel, what, site)
				}
			}
		}
	}
	for site := range lockSites {
		if !found[site] {
			t.Errorf("lockSites lists %q, which no longer exists: delete the entry", site)
		}
	}
}

// TestNormalWorldHoldsNoSecurePointer holds the untrusted normal world to the
// SMC gate (DESIGN.md §13): no non-test file of internal/normal imports an
// mOS package, so the dispatcher cannot call into an Enclave Manager, and
// none reads the cost model's WorldSwitch, which only spm.SMC charges.
func TestNormalWorldHoldsNoSecurePointer(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(root, "internal/normal", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no files under internal/normal: %v", err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if what := strings.Trim(imp.Path.Value, `"`); strings.HasPrefix(what+"/", "cronus/internal/mos/") {
				t.Errorf("%s: the normal world imports %s: reach the secure world through spm.SMC", fset.Position(imp.Pos()), what)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "WorldSwitch" {
				t.Errorf("%s: the normal world reads WorldSwitch: spm.SMC charges the world switches", fset.Position(sel.Pos()))
			}
			return true
		})
	}
}

// drawExceptions are the functions under internal/workload/rodinia that may
// draw from math/rand: BFS's graph sets how many frontier rounds run, and
// streamcluster's points and centres (randFloats) decide through its cost
// read-back how many centres it opens — there values feed time (DESIGN.md
// §18).
var drawExceptions = map[string]bool{"BFS": true, "randFloats": true}

// TestValueDrawsUseTheFiller keeps synthetic values off math/rand's slow
// stream: no non-test file of dnn, tvm or vtabench imports math/rand (their
// values come from workload.Filler), and in rodinia only drawExceptions call
// rand.New.
func TestValueDrawsUseTheFiller(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	found := make(map[string]bool)
	for _, pkg := range []string{"internal/dnn", "internal/tvm", "internal/workload/vtabench", "internal/workload/rodinia"} {
		files, err := filepath.Glob(filepath.Join(root, pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no files under %s: %v", pkg, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			if pkg != "internal/workload/rodinia" {
				for _, imp := range f.Imports {
					if what := strings.Trim(imp.Path.Value, `"`); strings.HasPrefix(what, "math/rand") {
						t.Errorf("%s: %s imports %s: draw synthetic values with workload.Filler", fset.Position(imp.Pos()), pkg, what)
					}
				}
				continue
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && calleeOf(call) == "rand.New" {
						if drawExceptions[fn.Name.Name] {
							found[fn.Name.Name] = true
						} else {
							t.Errorf("%s: %s draws from math/rand: only the draws whose values feed time (drawExceptions) may",
								fset.Position(call.Pos()), fn.Name.Name)
						}
					}
					return true
				})
			}
		}
	}
	for name := range drawExceptions {
		if !found[name] {
			t.Errorf("drawExceptions lists %s, which no longer draws from math/rand: delete the entry", name)
		}
	}
}
