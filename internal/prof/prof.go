// Package prof gives the CLIs the two standard profile flags, -cpuprofile and
// -memprofile, so that host-time work on the simulator starts from a profile
// of the real tool rather than from a guess:
//
//	p := prof.Flags()
//	flag.Parse()
//	if err := p.Start(); err != nil { ... }
//	defer p.Stop()
//
// and p.Exit(code) in place of os.Exit(code), which would skip the deferred
// Stop and lose the profile of exactly the run one wants to look at.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile holds the destinations parsed from the command line and the open
// CPU profile, if any.
type Profile struct {
	cpuPath, memPath *string
	cpu              *os.File
}

// Flags registers -cpuprofile and -memprofile on the default flag set. Call it
// before flag.Parse.
func Flags() *Profile {
	return &Profile{
		cpuPath: flag.String("cpuprofile", "", "write a host CPU profile to this file (go tool pprof)"),
		memPath: flag.String("memprofile", "", "write a host heap/allocation profile to this file on exit"),
	}
}

// Start begins CPU profiling when -cpuprofile was given. Call it after
// flag.Parse, once the arguments are known to be usable.
func (p *Profile) Start() error {
	if *p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(*p.cpuPath)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	p.cpu = f
	return nil
}

// Stop finishes the CPU profile and writes the memory profile. A failure to
// write one is reported on standard error and does not change the exit code
// of the run being profiled.
func (p *Profile) Stop() {
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
		}
	}
	if *p.memPath == "" {
		return
	}
	f, err := os.Create(*p.memPath)
	if err == nil {
		runtime.GC() // bring the in-use numbers up to date
		if err = pprof.WriteHeapProfile(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "memprofile:", err)
	}
}

// Exit stops the profiles and ends the process with the given code.
func (p *Profile) Exit(code int) {
	p.Stop()
	os.Exit(code)
}
