package core

import (
	"fmt"

	"cronus/internal/accel"
	"cronus/internal/gpu"
	"cronus/internal/mos/driver"
	"cronus/internal/sim"
	"cronus/internal/srpc"
)

// CUDAOptions configures a CUDA mEnclave connection.
type CUDAOptions struct {
	// Cubin is the module image (gpu.BuildCubin). Required.
	Cubin []byte
	// Memory is the manifest resource cap (default "128M").
	Memory string
	// RingPages sizes the sRPC shared-memory region (default 17 pages).
	RingPages int
	// Partition pins the enclave to a named GPU partition (default:
	// dispatcher round-robin across GPU partitions).
	Partition string
	// Name labels the enclave (default derived from the session).
	Name string
	// Rings opens that many parallel sRPC streams to the enclave (default
	// 1), each with its own executor thread, so independent batches never
	// contend on one ring's doorbell. The methods use ring 0; only tests
	// select another (Ring, in export_test.go).
	Rings int
	// ZCPayload, when positive, grants a zero-copy payload arena on every
	// ring sized for fused ExecZC calls of up to this many bytes.
	ZCPayload int
}

// CUDAConn is a connected CUDA mEnclave: the session's typed handle over
// the sRPC stream. It implements accel.CUDA, chunking transfers larger than
// the ring.
type CUDAConn struct{ stream }

var _ accel.CUDA = (*CUDAConn)(nil)

// OpenCUDA creates a CUDA mEnclave (the session's CPU enclave is the owner)
// and establishes the sRPC streams to it.
func (s *Session) OpenCUDA(p *sim.Proc, opts CUDAOptions) (*CUDAConn, error) {
	if len(opts.Cubin) == 0 {
		return nil, fmt.Errorf("core: OpenCUDA requires a cubin image")
	}
	if opts.Memory == "" {
		opts.Memory = "128M"
	}
	if opts.Name == "" {
		opts.Name = s.Name + "/cuda"
	}
	st, err := s.open(p, enclaveSpec{
		device: "gpu", edlName: "cuda.edl", edl: driver.CUDAEDL(), table: s.Platform.cudaEDL,
		imageName: "app.cubin", image: opts.Cubin,
		memory: opts.Memory, partition: opts.Partition, name: opts.Name,
	}, memCalls{driver.CallMemAlloc, driver.CallHtoD, driver.CallDtoH}, opts.RingPages, opts.Rings, opts.ZCPayload)
	if err != nil {
		return nil, err
	}
	return &CUDAConn{st}, nil
}

// ExecZC pushes one fused zero-copy record on this ring: an HtoD of payload
// to dst followed by a kernel launch, with completion (or the first error)
// delivered through notify in the executor's context. Requires ZCPayload in
// the open options. See srpc.CallZC for the no-wait contract.
func (c *CUDAConn) ExecZC(p *sim.Proc, dst uint64, payload []byte, kernel string, grid gpu.Dim, notify srpc.NotifyFn, args ...uint64) error {
	return c.client.CallZC(p, srpc.ZCRequest{
		Payload:  payload,
		CopyCall: driver.CallHtoD,
		Dst:      dst,
		ExecCall: driver.CallLaunch,
		ExecArgs: driver.EncodeLaunch(c.client.Args(), kernel, grid, args...),
	}, notify)
}

// MemFree implements accel.CUDA.
func (c *CUDAConn) MemFree(p *sim.Proc, ptr uint64) error {
	_, err := c.client.Call(p, driver.CallMemFree, driver.EncodeMemFree(ptr))
	return err
}

// Launch implements accel.CUDA (asynchronous).
func (c *CUDAConn) Launch(p *sim.Proc, kernel string, grid gpu.Dim, args ...uint64) error {
	_, err := c.client.Call(p, driver.CallLaunch, driver.EncodeLaunch(c.client.Args(), kernel, grid, args...))
	return err
}
