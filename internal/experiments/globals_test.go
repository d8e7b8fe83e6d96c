package experiments

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
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
	"gpu.useAVX":             "the matmul leaves' CPU check, set once at package init; read-only after, but for the gpu tests' hook that runs the Go twins while no other matmul runs",

	"wire.recycleHook": "buffer-poisoning hook of one test at a time",
	"recycle.Float32s": "one mutex guards each recycler; it holds only zeroed backings that no live span, arena, scratchpad or frame references",
	"recycle.Bytes":    "one mutex guards each recycler; it holds only zeroed backings that no live span, arena, scratchpad or frame references",
	"recycle.Int32s":   "one mutex guards each recycler; it holds only zeroed backings that no live span, arena, scratchpad or frame references",

	"attest.memo": "ed25519 answers over identical bytes: slots of atomic pointers to immutable entries of pure functions, a hit hands out a copy, and no false verdict or X25519 key is stored",

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

// asmFile is the one assembly file under internal/: the matmul leaves' AVX
// bodies and the CPU check that picks them (DESIGN.md §15), held bit for bit
// to their Go twins by gpu.TestRowTermsMatchPortable and
// gpu.TestTileTermsMatchPortable. Memory the assembly reads is proven in
// bounds on the Go side; a second file is a decision too — it moves this line.
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

// uncalledOK is every name under internal/ that no non-test file references
// (or, for a field, sets) but another package's tests read — an oracle or a
// hook — keyed as TestEveryExportHasACaller reports it, with the test that
// reads it.
var uncalledOK = map[string]string{
	"cluster.Fabric.Nodes":   "serve.TestOneNodeLinkIsLocal and chaos.TestRunNodeCrashFailover read the node count of the fabric a pool built",
	"enclave.BuildEDL":       "the oracle of core.TestSessionEDLIsBuildEDLs and mos/driver.TestEDLTextIsBuildEDLs, and the EDL of the test enclaves of mos, srpc, ipc and normal",
	"gpu.Device.MemUsed":     "device-memory oracle of core.TestCUDAMemFreeReturnsMemory, baseline.TestCloseGivesDeviceMemoryBack and mos.TestEnclaveKillRevokesGrantsAndDies",
	"npu.Device.MemUsed":     "device-memory oracle of mos.TestEnclaveKillRevokesGrantsAndDies's NPU row",
	"hw.DeviceTree.Frozen":   "spm.TestBootFreezesPlatform checks that boot freezes the device tree",
	"hw.TZASC.Locked":        "spm.TestBootFreezesPlatform checks that boot locks the TZASC",
	"hw.Machine.SecureBase":  "spm.TestDenialCarriesItsOwnPlatformClock aims a normal-world read at secure DRAM",
	"hw.PhysMem.WatchCount":  "leak oracle of core.TestCrashPointSweepMemAllocFree and srpc.TestDoorbellPartialArmLeavesNoWatch",
	"hw.Bus.RaiseIRQ":        "the genuine line mos.TestDeviceInterruptReachesDriver raises beside the spoof, whose hw twin is TestGICInterruptSpoofingRejected (DESIGN.md §7: devices complete by polled doorbell)",
	"metrics.Counter.Value":  "spm.TestSMCChargesByKind counts world switches",
	"mos/driver.accel.IRQs":  "mos.TestDeviceInterruptReachesDriver counts the interrupts the driver handled",
	"normal.ErrDropped":      "the refusal the adversaries of normal.TestNormalOSMatrix, srpc.TestDroppedExecutorFailsEstablishment and experiments.TestTrainTenantsFailsLoudly return",
	"sim.Proc.Resumes":       "srpc.TestBarrierResumesItsClientOnce and srpc.TestSidDoorbellMatchesResumedWaits count resumes",
	"sim.Kernel.Dispatched":  "event-index oracle of core.TestCrashPointSweepLaunchSync and srpc.TestSidDoorbellMatchesResumedWaits",
	"sim.Kernel.BeforeEvent": "the crash-point hook of core.TestCrashPointSweepLaunchSync and its siblings",
	"spm.SPM.GrantsTo":       "leaked-grant oracle of core.TestCrashPointSweepLaunchSync, mos.TestMOSPanicRecoversPartition and srpc.TestClosedStreamsReturnTheirPages",
	"trace.Collector.Events": "spm.TestFailTraceAndFailoverHistogram and spm.TestDenialCarriesItsOwnPlatformClock read the recorded events",
	"wire.SetRecycleHook":    "core.TestBufferLifetimesUnderPoison poisons every recycled buffer",
	"workload.NewFillerFrom": "dnn's export_test.go pins the filler for dnn.TestVirtualTimeIgnoresValues",
}

// awaitingCaller is every mechanism under internal/ that no non-test file
// references or sets yet, keyed to the open ROADMAP item that gives it one.
// The set is closed: a new mechanism lands with its caller.
var awaitingCaller = map[string]string{
	"ipc.NewRegion":        "item 24: the hetero pipeline's GPU → NPU hand-off, or ipc is deleted",
	"ipc.Region.Owner":     "item 24",
	"ipc.Region.Peer":      "item 24",
	"ipc.NewSpinLock":      "item 24",
	"ipc.SpinLock.Lock":    "item 24",
	"ipc.SpinLock.Unlock":  "item 24",
	"ipc.NewPipe":          "item 24",
	"ipc.Pipe.Write":       "item 24",
	"ipc.Pipe.Read":        "item 24",
	"ipc.Pipe.CloseWrite":  "item 24",
	"gpu.CopyPeer":         "item 26c: Fig 11b's P2P all-reduce",
	"gpu.Context.DtoD":     "item 26c: the all-reduce's on-device copies",
	"dnn.Trainer.GradPtrs": "item 26c: the gradients Fig 11b's workers exchange",
	"spm.SPM.UpdateMOS":    "item 28: re-attestation after an update to a listed or unlisted image",
	"mos.Enclave.Kill":     "item 4: CUDAConn.Close destroying the callee mEnclave",
	"sim.Kernel.Stats":     "item 12b: cronus-serve -report json carries it",
	"hw.DMAPort.transfer":  "item 27: the devices' host-side transfers go through the DMA port",
}

// callerTrees are the directories whose non-test files count as callers. bench/
// is its own module (cronus/bench) but its import paths are the directory's,
// so one scan type-checks it with the rest.
var callerTrees = []string{"internal", "cmd", "examples", "bench"}

// TestEveryExportHasACaller type-checks every package under callerTrees and
// fails on a name under internal/ that no non-test file uses — an exported
// func, method, type, const or package var, or an unexported func or method,
// that none references outside its own declaration, or an exported struct
// field that none sets (markSets; a tagged field counts as set, an embedded
// one is not checked) — unless uncalledOK or awaitingCaller lists it, and on
// an entry of either that is gone or has gained a caller. A method counts as
// called when it, or a method promoted from it, implements an interface
// method, exported or not, and a use of a generic instance counts for its
// origin. A name with no caller looks like coverage the reproduction does not
// have, and a field no caller sets like a knob it does not turn: delete it, or
// move it into the export_test.go of the one package whose tests read it
// (DESIGN.md §26).
func TestEveryExportHasACaller(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	uncalled, err := uncalledExports(root, callerTrees)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range callerFindings(uncalled, uncalledOK, awaitingCaller) {
		t.Error(msg)
	}
}

// TestCallerScanFixture runs the scan on testdata/callers, a module whose
// names exercise each rule: a method that implements an interface through an
// embedding counts as called, and so does an unexported one reached only
// through an unexported interface; a generic method called only through an
// instantiation counts; a call from a _test.go file does not, to an exported
// or an unexported func, nor does a field set only there; a call from bench/
// counts, and a table entry whose name has a caller is a finding.
func TestCallerScanFixture(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	uncalled, err := uncalledExports(filepath.Join(root, "internal/experiments/testdata/callers"), callerTrees)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range uncalled {
		names = append(names, name)
	}
	slices.Sort(names)
	if want := []string{"lib.Listed", "lib.Opts.TestSet", "lib.TestOnly", "lib.testHelper"}; !slices.Equal(names, want) {
		t.Fatalf("uncalled %v, want %v", names, want)
	}
	findings := callerFindings(uncalled, map[string]string{"lib.Listed": "a hook", "lib.BenchOnly": "stale: bench/ calls it"}, nil)
	want := []string{"lib.TestOnly has no caller", "lib.Opts.TestSet has no caller", "lib.testHelper has no caller", "uncalledOK lists lib.BenchOnly"}
	for _, w := range want {
		if len(findings) != len(want) || !slices.ContainsFunc(findings, func(f string) bool { return strings.Contains(f, w) }) {
			t.Fatalf("findings:\n%s\nwant one line each with %q", strings.Join(findings, "\n"), want)
		}
	}
}

// callerFindings compares the uncalled names with the two tables: one line
// per unlisted name, stale entry or name listed twice, sorted.
func callerFindings(uncalled map[string]token.Position, ok, awaiting map[string]string) []string {
	var out []string
	for name, pos := range uncalled {
		if ok[name] == "" && awaiting[name] == "" {
			out = append(out, fmt.Sprintf("%s: %s has no caller outside tests (a field: nothing there sets it): delete it, move it into its package's export_test.go, "+
				"or list it in uncalledOK (a hook another package's tests read) or awaitingCaller (with the ROADMAP item that wires it)", pos, name))
		}
	}
	for table, entries := range map[string]map[string]string{"uncalledOK": ok, "awaitingCaller": awaiting} {
		for name := range entries {
			if _, still := uncalled[name]; !still {
				out = append(out, fmt.Sprintf("%s lists %s, which is gone or has a caller now: delete the entry", table, name))
			}
		}
	}
	for name := range ok {
		if awaiting[name] != "" {
			out = append(out, fmt.Sprintf("%s is in both uncalledOK and awaitingCaller: keep one", name))
		}
	}
	slices.Sort(out)
	return out
}

// uncalledExports type-checks the non-test files of every package under the
// trees of the module at root and returns each exported func, method, type,
// const and package var and each unexported func and method declared under
// root/internal that none of them references, and each exported struct field
// there that none of them sets, keyed "dir.Name", "dir.Type.Method" or
// "dir.Type.Field" with dir the package's directory under internal/. Imports
// outside the module are type-checked from GOROOT's sources, so the scan
// needs nothing but the toolchain.
func uncalledExports(root string, trees []string) (map[string]token.Position, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
		}
	}
	fset := token.NewFileSet()
	s := &exportScan{
		fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*types.Package),
	}
	for _, tree := range trees {
		err := filepath.WalkDir(filepath.Join(root, tree), func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			rel, _ := filepath.Rel(root, path)
			_, err = s.load(modPath+"/"+filepath.ToSlash(rel), path)
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	used := make(map[types.Object]bool)
	set := make(map[*types.Var]bool)
	var concrete []*types.Named
	var ifaces []*types.Interface
	seen := make(map[types.Type]bool)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 && !seen[t] {
			if n, ok := t.(*types.Named); !ok || n.TypeParams().Len() == 0 {
				seen[t] = true
				ifaces = append(ifaces, it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	dyn, err := parser.ParseFile(fset, "dynamic.go", dynamicIfaces, 0)
	if err != nil {
		return nil, err
	}
	dynPkg, err := new(types.Config).Check("dynamic", fset, []*ast.File{dyn}, nil)
	if err != nil {
		return nil, err
	}
	for _, name := range dynPkg.Scope().Names() {
		addIface(dynPkg.Scope().Lookup(name).Type())
	}
	for _, c := range s.checked {
		for _, imp := range c.pkg.Imports() {
			if _, ours := s.dirOf(imp.Path()); ours {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
		for _, tv := range c.info.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				addIface(tv.Type)
			}
		}
		// A name used inside its own declaration (recursion, a self-referencing
		// type) or as a method receiver has no caller by that use.
		own := make(map[types.Object][2]token.Pos)
		recvIdents := make(map[*ast.Ident]bool)
		for _, f := range c.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					own[c.info.Defs[d.Name]] = [2]token.Pos{d.Pos(), d.End()}
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recvIdents[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							own[c.info.Defs[ts.Name]] = [2]token.Pos{ts.Pos(), ts.End()}
						}
					}
				}
			}
		}
		for id, obj := range c.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if span, ok := own[obj]; (ok && span[0] <= id.Pos() && id.Pos() < span[1]) || recvIdents[id] {
				continue
			}
			used[obj] = true
		}
		for _, f := range c.files {
			markSets(c.info, f, set)
		}
		for _, obj := range c.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				if _, isIface := n.Underlying().(*types.Interface); isIface {
					addIface(n)
				} else if n.TypeParams().Len() == 0 {
					concrete = append(concrete, n)
				}
			}
		}
	}
	// A method that implements an interface method — directly or promoted
	// through an embedded field — is called through the interface. Generic
	// types and interfaces are left out: Implements is unspecified for an
	// uninstantiated type.
	for _, n := range concrete {
		mset := types.NewMethodSet(types.NewPointer(n))
		if mset.Len() == 0 {
			continue
		}
		for _, it := range ifaces {
			if !types.Implements(types.NewPointer(n), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
					used[sel.Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}

	uncalled := make(map[string]token.Position)
	internal := filepath.Join(root, "internal") + string(filepath.Separator)
	for _, c := range s.checked {
		if !strings.HasPrefix(c.dir+string(filepath.Separator), internal) {
			continue
		}
		dir := filepath.ToSlash(strings.TrimPrefix(c.dir, internal))
		for id, obj := range c.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() && !set[f] && st.Tag(i) == "" {
					uncalled[dir+"."+id.Name+"."+f.Name()] = fset.Position(f.Pos())
				}
			}
		}
		for id, obj := range c.info.Defs {
			_, isFunc := obj.(*types.Func)
			if obj == nil || used[obj] || !obj.Exported() && (!isFunc || id.Name == "init") {
				continue
			}
			key := dir + "." + id.Name
			switch o := obj.(type) {
			case *types.Func:
				if recv := o.Type().(*types.Signature).Recv(); recv != nil {
					base := recv.Type()
					if p, ok := base.(*types.Pointer); ok {
						base = p.Elem()
					}
					n, ok := base.(*types.Named)
					if !ok || types.IsInterface(n) {
						continue
					}
					key = dir + "." + n.Obj().Name() + "." + id.Name
				} else if o.Parent() != c.pkg.Scope() {
					continue
				}
			case *types.TypeName, *types.Const, *types.Var:
				if obj.Parent() != c.pkg.Scope() {
					continue
				}
			default:
				continue
			}
			uncalled[key] = fset.Position(id.Pos())
		}
	}
	return uncalled, nil
}

// markSets adds to set every struct field f sets: through a keyed or
// positional composite literal, or as the target of an assignment, an
// op-assign, ++, -- or a range clause. A target's field that holds it by value
// — x.F in x.F.G = v or x.F[i] = v with F an array — is set with it.
func markSets(info *types.Info, f *ast.File, set map[*types.Var]bool) {
	target := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				v, ok := info.Uses[x.Sel].(*types.Var)
				if !ok || !v.IsField() {
					return
				}
				set[v.Origin()] = true
				if _, byValue := info.TypeOf(x.X).Underlying().(*types.Struct); !byValue {
					return
				}
				e = x.X
			case *ast.IndexExpr:
				if _, byValue := info.TypeOf(x.X).Underlying().(*types.Array); !byValue {
					return
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			t := info.TypeOf(x)
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem() // an element of []*T written as {...}
			}
			st, ok := t.Underlying().(*types.Struct)
			for i, elt := range x.Elts {
				if kv, keyed := elt.(*ast.KeyValueExpr); keyed && ok {
					set[info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
				} else if ok {
					set[st.Field(i).Origin()] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(x.X)
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				target(x.Key)
				target(x.Value)
			}
		}
		return true
	})
}

// dynamicIfaces are interfaces the standard library asserts on without
// exporting them: errors.Is, errors.As and errors.Unwrap reach a wrapped
// error's Unwrap, Is and As methods through these.
const dynamicIfaces = `package dynamic

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

// exportScan loads the module's packages for uncalledExports, each once, in
// dependency order.
type exportScan struct {
	fset    *token.FileSet
	root    string
	modPath string
	std     types.ImporterFrom
	pkgs    map[string]*types.Package // nil while its imports load
	checked []checkedPkg
}

type checkedPkg struct {
	dir   string
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// dirOf maps an import path of the module to its directory.
func (s *exportScan) dirOf(path string) (string, bool) {
	if path == s.modPath {
		return s.root, true
	}
	rest, ok := strings.CutPrefix(path, s.modPath+"/")
	return filepath.Join(s.root, filepath.FromSlash(rest)), ok
}

func (s *exportScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, s.root, 0)
}

func (s *exportScan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkgDir, ok := s.dirOf(path); ok {
		return s.load(path, pkgDir)
	}
	return s.std.ImportFrom(path, dir, mode)
}

// load type-checks the non-test files of dir that build.Default selects, or
// returns nil if there are none.
func (s *exportScan) load(path, dir string) (*types.Package, error) {
	if pkg, seen := s.pkgs[path]; seen {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	s.pkgs[path] = nil
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = pkg
	s.checked = append(s.checked, checkedPkg{dir: dir, pkg: pkg, info: info, files: files})
	return pkg, nil
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

// textMatchAllowed is every test function that still matches an error by its
// text, keyed "dir.Func", with why no sentinel serves. A refusal that crosses
// a ring or the sealed channel keeps its type (mos.CallError unwraps to its
// sentinel), so a text match on one is an errors.Is not yet written.
var textMatchAllowed = map[string]string{
	"internal/chaos.TestKnownKindsPinned":                         "a -kinds parse error must list every known kind: the list is the text",
	"internal/chaos.TestParseKinds":                               "a -kinds parse error must name the bad kind and the known ones",
	"internal/chaos.TestRunRejectsTopologyMismatch":               "the campaign must refuse exactly as the single run did: the two errors' texts are compared",
	"internal/core.TestOpenCUDARequiresCubin":                     "option validation before any enclave exists; no sentinel",
	"internal/enclave.TestManifestRejectsTamperedImage":           "manifest verification names the image whose hash differs; no sentinel",
	"internal/experiments.TestTrainTenantsFailsLoudly":            "errors.Is checks the sentinel; the text checks which tenant and step the runner names",
	"internal/hw.TestDeviceTreeValidation":                        "each malformed tree is refused by a message naming what is wrong; no sentinel",
	"internal/mos.FuzzRemoteError":                                "the reply-frame codec's own fuzz: a refusal must keep the peer's text byte for byte",
	"internal/mos.TestRefusalTable":                               "the reply-frame codec's own test: a code the table does not list must keep the peer's text",
	"internal/mos/driver.FuzzDecodeInsns":                         "a bad program magic has no sentinel: mos/driver sits above mos, so its errors cannot join the refusal table",
	"internal/mos/driver.TestCUDAModelArgValidation":              "the model is called directly; the EDL admission check (mos.ErrUndeclaredCall) refuses an unknown name before any ring reaches it",
	"internal/partition.TestPartitionRejectsImplicitSharedState":  "the partitioning tool reports source-level findings as text",
	"internal/partition.TestPartitionRejectsReadBeforeWrite":      "the partitioning tool reports source-level findings as text",
	"internal/partition.TestPartitionRejectsUnknownCallAndDevice": "the partitioning tool reports source-level findings as text",
	"internal/serve.TestAdmissionShedsTyped":                      "checks that OverloadError renders at all, not which error it is",
	"internal/serve.TestDependentSettingsRefusedAlone":            "config validation names the missing setting; no sentinel",
	"internal/serve.TestNodeFaultsOnOneNodePool":                  "config validation names the bad fault; no sentinel",
	"internal/spm.TestShareOnceRule":                              "the SPM's double-share refusal has no sentinel; it never crosses a ring",
}

// TestNoErrorTextMatch fails on a test that matches an error's text —
// strings.Contains or strings.HasPrefix on an Error() call or a Msg field, or
// == / != on either — unless textMatchAllowed names it, and on an entry that
// no longer matches anything.
func TestNoErrorTextMatch(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	found := make(map[string]bool)
	for _, dir := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := filepath.ToSlash(rel) + "." + fn.Name.Name
				ast.Inspect(fn, func(n ast.Node) bool {
					var operands []ast.Expr
					switch n := n.(type) {
					case *ast.CallExpr:
						if callee := calleeOf(n); callee == "strings.Contains" || callee == "strings.HasPrefix" {
							operands = n.Args
						}
					case *ast.BinaryExpr:
						if n.Op == token.EQL || n.Op == token.NEQ {
							operands = []ast.Expr{n.X, n.Y}
						}
					}
					if !slices.ContainsFunc(operands, isErrorText) {
						return true
					}
					if textMatchAllowed[key] != "" {
						found[key] = true
					} else {
						t.Errorf("%s: %s matches an error by its text: use errors.Is on its sentinel, or list the test in textMatchAllowed with why none serves",
							fset.Position(n.Pos()), key)
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for key := range textMatchAllowed {
		if !found[key] {
			t.Errorf("textMatchAllowed lists %s, which matches no error text: delete the entry", key)
		}
	}
}

// isErrorText reports whether x reads an error's text: a call of an Error
// method or a Msg field (mos.CallError's peer text).
func isErrorText(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.CallExpr:
		sel, ok := x.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Error" && len(x.Args) == 0
	case *ast.SelectorExpr:
		return x.Sel.Name == "Msg"
	}
	return false
}
