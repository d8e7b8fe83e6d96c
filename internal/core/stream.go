package core

import (
	"fmt"

	"cronus/internal/mos/driver"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/srpc"
	"cronus/internal/wire"
)

// stream is the owner side of the sRPC streams to one accelerator mEnclave:
// the memory mECalls, transfers and lifecycle CUDAConn and NPUConn share.
type stream struct {
	client *srpc.Client   // ring 0 (also rings[0])
	rings  []*srpc.Client // all parallel streams to the enclave
	EID    uint32
	chunk  int
	calls  memCalls
}

// memCalls names a device kind's three memory mECalls.
type memCalls struct{ alloc, htod, dtoh string }

// open creates the mEnclave spec describes and connects rings sRPC streams
// of pages each to it (at least one), each with a zero-copy arena for fused
// calls of up to zc bytes when zc > 0: manifest build, dispatch, local
// attestation, smem sharing, dCheck, executor creation (§III-D, §IV-C). Local
// attestation expects the measurement of what was sent and the mOS
// measurement of the partition the enclave id names. The enclave's
// measurement joins the session's once every stream is up; no stream is
// handed back on a refusal, so it abandons what it opened.
func (s *Session) open(p *sim.Proc, spec enclaveSpec, calls memCalls, pages, rings, zc int) (stream, error) {
	enc, err := s.create(p, spec)
	if err != nil {
		return stream{}, err
	}
	part, ok := s.Platform.SPM.Partition(spm.PartitionID(enc.eid >> 24))
	if !ok {
		return stream{}, fmt.Errorf("core: %w for eid %#x", spm.ErrNoPartition, enc.eid)
	}
	expected := srpc.Expected{EnclaveHash: enc.man.Measure(enc.files), MOSHash: part.MOSHash()}
	rings = max(rings, 1)
	st := stream{rings: make([]*srpc.Client, 0, rings), EID: enc.eid, chunk: ringChunk(pages), calls: calls}
	for i := 0; i < rings; i++ {
		client, err := srpc.Connect(p, s.owner, enc.eid, enc.secret, spec.table, expected, s.Platform.D, pages)
		if err == nil {
			st.rings = append(st.rings, client)
			if zc > 0 {
				err = client.GrantArena(p, zc)
			}
		}
		if err != nil {
			st.Abandon()
			return stream{}, err
		}
	}
	st.client = st.rings[0]
	s.manifests[spec.name] = enc.hash
	return st, nil
}

// ringChunk is the transfer chunk for a ring of pages (0 or 1 = the
// default): a quarter of its slot area, so streaming overlaps, and never
// below one slot.
func ringChunk(pages int) int {
	if pages < 2 {
		pages = srpc.DefaultPages
	}
	return max((pages-1)*4096/4, srpc.SlotSize)
}

// Client exposes the underlying stream (stats, advanced use).
func (c *stream) Client() *srpc.Client { return c.client }

// MemAlloc implements accel.CUDA and accel.NPU.
func (c *stream) MemAlloc(p *sim.Proc, n uint64) (uint64, error) {
	res, err := c.client.Call(p, c.calls.alloc, driver.EncodeMemAlloc(n))
	if err != nil {
		return 0, err
	}
	return driver.DecodePtr(res)
}

// HtoD implements accel.CUDA and accel.NPU: asynchronous, in ring-sized
// chunks. Each chunk is a vectored call — the (dst, length) words from the
// stack, the payload from the caller's slice — so the bytes go from data into
// the ring and nowhere in between.
func (c *stream) HtoD(p *sim.Proc, dst uint64, data []byte) error {
	for off := 0; off < len(data); off += c.chunk {
		end := min(off+c.chunk, len(data))
		head := driver.HtoDHead(dst+uint64(off), end-off)
		if _, err := c.client.CallVec(p, c.calls.htod, head[:], data[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// DtoH implements accel.CUDA and accel.NPU: n bytes at device address src,
// read in ring-sized chunks into a slice the caller owns — the one allocation
// a transfer makes. Each chunk is a synchronous call whose (src, length)
// arguments come from the stack; its reply is only valid until the next call
// on the stream, so it is appended to the result before that.
func (c *stream) DtoH(p *sim.Proc, src uint64, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for off := 0; off < n; off += c.chunk {
		end := min(off+c.chunk, n)
		head := driver.DtoHHead(src+uint64(off), uint64(end-off))
		res, err := c.client.CallSyncCap(p, c.calls.dtoh, head[:], end-off+64)
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

// Sync implements accel.CUDA (streamCheck) and accel.NPU.
func (c *stream) Sync(p *sim.Proc) error { return c.client.Barrier(p) }

// Abandon tears down the owner side of the connection without draining the
// rings or waiting for the executors — the recovery action after a timed-out
// or corrupted stream, where a graceful Close could block forever. The
// enclave is left to the partition's lifecycle; callers reconnect with a
// fresh open.
func (c *stream) Abandon() {
	for _, r := range c.rings {
		r.Abandon()
	}
}

// Close implements accel.CUDA and accel.NPU: every ring is drained and
// closed.
func (c *stream) Close(p *sim.Proc) error {
	var first error
	for _, r := range c.rings {
		if err := r.Close(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}
