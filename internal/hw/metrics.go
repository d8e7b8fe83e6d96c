package hw

import "cronus/internal/metrics"

// Isolation-hardware denial accounting. The hardware layer has no notion of
// virtual time or processes, so it only counts; the SPM that boots on a
// machine installs a denial observer on it (Machine.ObserveDenials) that turns
// each of that machine's denials into a trace instant stamped with that
// platform's kernel clock.
var (
	mTZASCDenials = metrics.Default.Counter("hw.tzasc.denials")
	mTZPCDenials  = metrics.Default.Counter("hw.tzpc.denials")
	mSMMUFaults   = metrics.Default.Counter("hw.smmu.faults")
)

// ObserveDenials installs fn as the observer of every TZASC, TZPC and SMMU
// denial on this machine (nil removes it). fn runs synchronously on the
// faulting path and must not touch the machine. A machine with no observer,
// like a unit built outside any machine, just counts.
func (m *Machine) ObserveDenials(fn func(f *Fault)) {
	m.TZASC.onDenial, m.TZPC.onDenial, m.SMMU.onDenial = fn, fn, fn
}

// reportDenial counts a denial on the matching instrument and forwards it to
// the refusing unit's observer.
func reportDenial(f *Fault, observe func(f *Fault)) {
	switch f.Kind {
	case FaultTZASC:
		mTZASCDenials.Inc()
	case FaultTZPC:
		mTZPCDenials.Inc()
	case FaultSMMU:
		mSMMUFaults.Inc()
	}
	if observe != nil {
		observe(f)
	}
}
