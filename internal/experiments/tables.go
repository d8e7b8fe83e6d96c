package experiments

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"cronus/internal/baseline"
	"cronus/internal/core"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

// Table1 reproduces the requirement matrix (Table I): which of R1 (general
// accelerators, no hardware customization), R2 (spatial sharing), R3.1
// (fault isolation) and R3.2 (security isolation) each implemented system
// provides.
func Table1() *Table {
	t := &Table{
		Title:   "Table I: requirement matrix (implemented systems)",
		Columns: []string{"system", "R1 general", "R2 spatial", "R3.1 fault-iso", "R3.2 security-iso"},
	}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, s := range []baseline.System{baseline.Native, baseline.TrustZone, baseline.HIX, baseline.CRONUS} {
		r1, r2, r31, r32, err := baseline.Describe(s)
		if err != nil {
			continue
		}
		t.Rows = append(t.Rows, []string{string(s), mark(r1), mark(r2), mark(r31), mark(r32)})
	}
	return t
}

// Table2 reproduces the prototype configuration (Table II) from the live
// platform.
func Table2() (*Table, error) {
	t := &Table{
		Title:   "Table II: prototyped system configuration",
		Columns: []string{"component", "value"},
	}
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		t.Rows = append(t.Rows,
			[]string{"secure memory", fmt.Sprintf("%d MiB (TZASC-protected)", pl.M.Mem.Region("secure").Size>>20)},
			[]string{"normal memory", fmt.Sprintf("%d MiB", pl.M.Mem.Region("normal").Size>>20)},
		)
		for _, g := range pl.GPUs {
			t.Rows = append(t.Rows, []string{"gpu " + g.Dev.Name(),
				fmt.Sprintf("%.0f SMs, %d MiB, MPS=%v (Turing-class model)", g.Dev.SMs(), g.Dev.MemBytes()>>20, g.Dev.MPS())})
		}
		for _, n := range pl.NPUs {
			t.Rows = append(t.Rows, []string{"npu " + n.Dev.Name(),
				fmt.Sprintf("VTA-compatible fsim, %d MiB DRAM", n.Dev.MemBytes()>>20)})
		}
		for _, part := range pl.SPM.Partitions() {
			dev := part.Device
			if dev == "" {
				dev = "(cpu)"
			}
			t.Rows = append(t.Rows, []string{"partition " + part.Name, "device " + dev})
		}
		t.Rows = append(t.Rows,
			[]string{"attestation", "Ed25519 RoT -> AtK -> report; X25519 secret_dhke"},
			[]string{"mOS restart", fmt.Sprintf("%.0f ms (device clear + reload)", (pl.Costs.DeviceClear + pl.Costs.MOSRestart).Milliseconds())},
			[]string{"machine reboot", fmt.Sprintf("%.0f s (monolithic recovery)", pl.Costs.MachineReboot.Seconds())},
		)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// tcbComponent maps a Table III row to the repository packages whose line
// counts stand for that component's TCB.
type tcbComponent struct {
	Name     string
	Packages []string
}

// Table3 reproduces the TCB accounting (Table III): lines of code per
// mEnclave kind and shared infrastructure, counted from this repository's
// sources. The paper's point — each PaaS service trusts only its own mOS
// stack rather than one monolithic OS containing every driver — is shown by
// the per-component split plus the "monolithic total" row, which counts a
// package two rows share (device memory, in both accelerator mOSes) once.
func Table3() (*Table, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	comps := []tcbComponent{
		{"CPU mOS (optee-style)", []string{"internal/mos", "internal/mos/driver"}},
		{"GPU mOS (nouveau+gdev-style)", []string{"internal/gpu", "internal/devmem"}},
		{"NPU mOS (vta fsim-style)", []string{"internal/npu", "internal/devmem"}},
		{"mEnclave Manager", []string{"internal/enclave"}},
		{"sRPC", []string{"internal/srpc"}},
		{"SPM + attestation (shared TCB)", []string{"internal/spm", "internal/attest"}},
	}
	t := &Table{
		Title:   "Table III: lines of code per TCB component (this repository)",
		Columns: []string{"component", "LoC"},
	}
	total, counted := 0, map[string]bool{}
	for _, c := range comps {
		n := 0
		for _, pkg := range c.Packages {
			loc, err := countGoLines(filepath.Join(root, pkg))
			if err != nil {
				return nil, err
			}
			n += loc
			if !counted[pkg] {
				counted[pkg] = true
				total += loc
			}
		}
		t.Rows = append(t.Rows, []string{c.Name, fmt.Sprintf("%d", n)})
	}
	t.Rows = append(t.Rows, []string{"monolithic total (what one TEE OS would carry)", fmt.Sprintf("%d", total)})
	return t, nil
}

// PackageLoC is the repository's size yardstick: non-test, non-blank Go lines
// (the Table III count) for every package directory in the tree, plus the
// total — the before/after column simplification PRs are measured by.
func PackageLoC() (*Table, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Non-test Go lines per package (this repository)",
		Columns: []string{"package", "LoC"},
	}
	total := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir // .git, the benchmark's build cache, and fixtures
		}
		n, err := countGoLines(path)
		if err != nil || n == 0 {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		total += n
		t.Rows = append(t.Rows, []string{filepath.ToSlash(rel), fmt.Sprintf("%d", n)})
		return nil
	})
	t.Rows = append(t.Rows, []string{"total", fmt.Sprintf("%d", total)})
	return t, err
}

// repoRoot locates the module root from this source file's path.
func repoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("experiments: cannot locate sources")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file))), nil
}

// countGoLines counts non-test Go source lines (excluding blanks) in a
// directory.
func countGoLines(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) != "" {
				total++
			}
		}
		f.Close()
	}
	return total, nil
}

// RecoveryRow is one system's recovery time after an accelerator fault.
type RecoveryRow struct {
	System   baseline.System
	Recovery sim.Duration
	Measured bool // measured from a live failover (CRONUS) vs modelled
}

// RecoveryTimes measures CRONUS's mOS restart against the monolithic
// systems' machine reboot (§VI-D).
func RecoveryTimes() ([]RecoveryRow, error) {
	var rows []RecoveryRow
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		rec := pl.SPM.Fail(pl.GPUs[0].Part, spm.FailPanic)
		pl.SPM.AwaitReady(p, pl.GPUs[0].Part)
		rows = []RecoveryRow{{System: baseline.CRONUS, Recovery: rec.Downtime(), Measured: true}}
		for _, sys := range []baseline.System{baseline.TrustZone, baseline.HIX, baseline.Native} {
			rows = append(rows, RecoveryRow{System: sys, Recovery: baseline.RecoveryTime(sys, pl.Costs)})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderRecovery formats the recovery comparison.
func RenderRecovery(rows []RecoveryRow) *Table {
	t := &Table{
		Title:   "Recovery time after an accelerator-stack fault (§VI-D)",
		Columns: []string{"system", "recovery", "method"},
	}
	for _, r := range rows {
		method := "whole-machine reboot (modelled)"
		if r.Measured {
			method = "mOS restart (measured failover)"
		}
		t.Rows = append(t.Rows, []string{string(r.System), fmt.Sprintf("%.0f ms", r.Recovery.Milliseconds()), method})
	}
	return t
}
