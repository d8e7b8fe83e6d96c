// Package accel defines the device-operation interfaces workloads are
// written against. The same Rodinia benchmark or DNN training step runs
// unmodified on CRONUS (sRPC-backed), on the monolithic-TrustZone and
// HIX-TrustZone baselines, and natively — mirroring how the paper evaluates
// one workload across four systems (§VI-A).
package accel

import (
	"cronus/internal/gpu"
	"cronus/internal/npu"
	"cronus/internal/sim"
)

// CUDA is the CUDA-driver-level operation surface.
type CUDA interface {
	// MemAlloc allocates device memory.
	MemAlloc(p *sim.Proc, n uint64) (uint64, error)
	// MemFree releases device memory.
	MemFree(p *sim.Proc, ptr uint64) error
	// HtoD copies host data to the device (may be asynchronous). It
	// neither keeps nor writes data: the caller may reuse data as soon as
	// HtoD returns, so one host buffer can stage every upload of a loop.
	HtoD(p *sim.Proc, dst uint64, data []byte) error
	// DtoH copies device data to the host (synchronous).
	DtoH(p *sim.Proc, src uint64, n int) ([]byte, error)
	// Launch enqueues a kernel (may be asynchronous). Like HtoD with its
	// data, it neither keeps nor writes args once it returns, so one
	// argument buffer can carry every launch of a loop (Launcher).
	Launch(p *sim.Proc, kernel string, grid gpu.Dim, args ...uint64) error
	// Sync blocks until all enqueued work completed and surfaces any
	// asynchronous error.
	Sync(p *sim.Proc) error
	// Close releases the execution context.
	Close(p *sim.Proc) error
}

// Launcher is a CUDA surface whose Launch copies its arguments into one
// buffer it reuses and passes that on. A variadic list handed straight to
// CUDA.Launch is heap-allocated at every call, since the compiler cannot see
// that no implementation keeps it; a list handed to Launcher.Launch, a static
// call that only copies it, stays on the caller's stack.
type Launcher struct {
	CUDA
	args []uint64
}

// Launch implements CUDA.Launch through the reused argument buffer.
func (l *Launcher) Launch(p *sim.Proc, kernel string, grid gpu.Dim, args ...uint64) error {
	l.args = append(l.args[:0], args...)
	return l.CUDA.Launch(p, kernel, grid, l.args...)
}

// NPU is the VTA-driver-level operation surface.
type NPU interface {
	MemAlloc(p *sim.Proc, n uint64) (uint64, error)
	// HtoD copies host data to the device (may be asynchronous); as with
	// CUDA.HtoD, the caller may reuse data as soon as it returns.
	HtoD(p *sim.Proc, dst uint64, data []byte) error
	DtoH(p *sim.Proc, src uint64, n int) ([]byte, error)
	// Run submits an instruction stream (may be asynchronous).
	Run(p *sim.Proc, insns []npu.Insn) error
	Sync(p *sim.Proc) error
	Close(p *sim.Proc) error
}
