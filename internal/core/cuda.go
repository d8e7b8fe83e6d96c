package core

import (
	"fmt"

	"cronus/internal/accel"
	"cronus/internal/gpu"
	"cronus/internal/mos/driver"
	"cronus/internal/sim"
	"cronus/internal/srpc"
	"cronus/internal/wire"
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
type CUDAConn struct {
	sess   *Session
	client *srpc.Client   // ring 0 (also rings[0])
	rings  []*srpc.Client // all parallel streams to the enclave
	EID    uint32
	chunk  int
}

var _ accel.CUDA = (*CUDAConn)(nil)

// OpenCUDA creates a CUDA mEnclave (the session's CPU enclave is the owner)
// and establishes the sRPC stream to it: manifest build, dispatch, local
// attestation, smem sharing, dCheck, executor creation (§III-D, §IV-C).
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
	enc, err := s.create(p, accelSpec{
		device: "gpu", edlName: "cuda.edl", edl: driver.CUDAEDL(),
		imageName: "app.cubin", image: opts.Cubin,
		memory: opts.Memory, partition: opts.Partition, name: opts.Name,
	})
	if err != nil {
		return nil, err
	}
	nrings := opts.Rings
	if nrings < 1 {
		nrings = 1
	}
	rings := make([]*srpc.Client, 0, nrings)
	for i := 0; i < nrings; i++ {
		client, err := srpc.Connect(p, s.owner, enc.eid, enc.secret, s.Platform.cudaEDL, enc.expected,
			s.Platform.D, opts.RingPages)
		if err == nil {
			rings = append(rings, client)
			if opts.ZCPayload > 0 {
				err = client.GrantArena(p, opts.ZCPayload)
			}
		}
		if err != nil {
			// No connection is handed back, so the refusal closes what it opened.
			(&CUDAConn{rings: rings}).Abandon()
			return nil, err
		}
	}
	s.manifests[opts.Name] = enc.hash
	return &CUDAConn{sess: s, client: rings[0], rings: rings, EID: enc.eid, chunk: ringChunk(opts.RingPages)}, nil
}

// Client exposes the underlying stream (stats, advanced use).
func (c *CUDAConn) Client() *srpc.Client { return c.client }

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

// MemAlloc implements accel.CUDA.
func (c *CUDAConn) MemAlloc(p *sim.Proc, n uint64) (uint64, error) {
	res, err := c.client.Call(p, driver.CallMemAlloc, driver.EncodeMemAlloc(n))
	if err != nil {
		return 0, err
	}
	return driver.DecodePtr(res)
}

// MemFree implements accel.CUDA.
func (c *CUDAConn) MemFree(p *sim.Proc, ptr uint64) error {
	_, err := c.client.Call(p, driver.CallMemFree, driver.EncodeMemFree(ptr))
	return err
}

// HtoD implements accel.CUDA: asynchronous, chunked to the ring size.
func (c *CUDAConn) HtoD(p *sim.Proc, dst uint64, data []byte) error {
	return streamHtoD(p, c.client, driver.CallHtoD, c.chunk, dst, data)
}

// DtoH implements accel.CUDA: synchronous, chunked.
func (c *CUDAConn) DtoH(p *sim.Proc, src uint64, n int) ([]byte, error) {
	return streamDtoH(p, c.client, driver.CallDtoH, c.chunk, src, n)
}

// streamHtoD streams data to device address dst in ring-sized chunks. Each
// chunk is a vectored call — the (dst, length) words from the stack, the
// payload from the caller's slice — so the bytes go from data into the ring
// and nowhere in between.
func streamHtoD(p *sim.Proc, client *srpc.Client, call string, chunk int, dst uint64, data []byte) error {
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		head := driver.HtoDHead(dst+uint64(off), end-off)
		if _, err := client.CallVec(p, call, head[:], data[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// streamDtoH reads n bytes at device address src in ring-sized chunks into a
// slice the caller owns — the one allocation a transfer makes. Each chunk is
// a synchronous call whose (src, length) arguments come from the stack; its
// reply is only valid until the next call on the stream, so it is appended
// to the result before that.
func streamDtoH(p *sim.Proc, client *srpc.Client, call string, chunk int, src uint64, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for off := 0; off < n; off += chunk {
		end := off + chunk
		if end > n {
			end = n
		}
		head := driver.DtoHHead(src+uint64(off), uint64(end-off))
		res, err := client.CallSyncCap(p, call, head[:], end-off+64)
		if err != nil {
			return nil, err
		}
		d := wire.NewDecoder(res)
		blob := d.BlobRef()
		if err := d.Err(); err != nil {
			return nil, err
		}
		out = append(out, blob...)
	}
	return out, nil
}

// Launch implements accel.CUDA (asynchronous).
func (c *CUDAConn) Launch(p *sim.Proc, kernel string, grid gpu.Dim, args ...uint64) error {
	_, err := c.client.Call(p, driver.CallLaunch, driver.EncodeLaunch(c.client.Args(), kernel, grid, args...))
	return err
}

// Sync implements accel.CUDA (streamCheck).
func (c *CUDAConn) Sync(p *sim.Proc) error { return c.client.Barrier(p) }

// Abandon tears down the owner side of the connection without draining the
// rings or waiting for the executors — the recovery action after a timed-out
// or corrupted stream, where a graceful Close could block forever. The
// enclave is left to the partition's lifecycle; callers reconnect with a
// fresh OpenCUDA.
func (c *CUDAConn) Abandon() {
	for _, r := range c.rings {
		r.Abandon()
	}
}

// Close implements accel.CUDA: every ring is drained and closed.
func (c *CUDAConn) Close(p *sim.Proc) error {
	var first error
	for _, r := range c.rings {
		if err := r.Close(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}
