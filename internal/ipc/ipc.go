// Package ipc implements the inter-enclave communication primitives the
// paper builds on trusted shared memory beyond RPC (§IV-C): byte pipes and
// spinlocks implemented with atomic operations on the shared region,
// avoiding any involvement of the untrusted OS.
//
// All primitives inherit the proceed-trap failure semantics (§IV-D): if the
// communicating partition or mEnclave fails, the next access traps and the
// primitive returns ErrPeerFailed instead of deadlocking — the paper's A2
// defence, demonstrated by the tests with a lock held by a dead partition.
package ipc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cronus/internal/hw"
	"cronus/internal/mos"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

// ErrPeerFailed reports that the other side's partition or enclave failed;
// the primitive's state was cleared.
var ErrPeerFailed = errors.New("ipc: peer failed; shared region revoked")

const pollQuantum = 300 * sim.Nanosecond

// Region is one trusted shared-memory region between two partitions,
// established through the SPM exactly like an sRPC smem region.
type Region struct {
	spm    *spm.SPM
	gid    int
	owner  *Endpoint
	peer   *Endpoint
	closed bool
}

// Endpoint is one side's handle: a memory view plus the region's base
// address in that side's address space.
type Endpoint struct {
	view  *spm.View
	base  uint64
	size  uint64
	costs *sim.CostModel
}

// NewRegion allocates pages of trusted memory owned by ownerEnc's enclave
// and shares them with peerPart, returning the region with both endpoints.
// In a full deployment the peer endpoint is handed to the peer enclave via
// an authenticated message (as sRPC does); tests and examples wire it
// directly.
func NewRegion(p *sim.Proc, ownerEnc *mos.Enclave, peerPart *spm.Partition, pages int) (*Region, error) {
	if pages < 1 {
		pages = 1
	}
	m := ownerEnc.MOS()
	ipa, peerIPA, gid, err := ownerEnc.ShareWith(p, pages, peerPart)
	if err != nil {
		return nil, err
	}
	p.Sleep(sim.Duration(pages) * m.Costs.MapPage)
	size := uint64(pages) * hw.PageSize
	return &Region{
		spm:   m.SPM,
		gid:   gid,
		owner: &Endpoint{view: ownerEnc.View(), base: ipa, size: size, costs: m.Costs},
		peer:  &Endpoint{view: m.SPM.NewView(peerPart, nil), base: peerIPA, size: size, costs: m.Costs},
	}, nil
}

// Owner returns the owning side's endpoint.
func (r *Region) Owner() *Endpoint { return r.owner }

// Peer returns the peer side's endpoint.
func (r *Region) Peer() *Endpoint { return r.peer }

// Close dissolves the share.
func (r *Region) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	return r.spm.Unshare(r.gid)
}

func (e *Endpoint) translate(err error) error {
	if err == nil {
		return nil
	}
	var pf *spm.PeerFault
	if errors.As(err, &pf) {
		return fmt.Errorf("%w (failed party: %s)", ErrPeerFailed, pf.Failed)
	}
	var down *spm.PartitionDownError
	if errors.As(err, &down) {
		return fmt.Errorf("%w (own partition restarted)", ErrPeerFailed)
	}
	return err
}

func (e *Endpoint) readU32(p *sim.Proc, off uint64) (uint32, error) {
	var b [4]byte
	if err := e.view.Read(p, e.base+off, b[:]); err != nil {
		return 0, e.translate(err)
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (e *Endpoint) writeU32(p *sim.Proc, off uint64, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return e.translate(e.view.Write(p, e.base+off, b[:]))
}

// SpinLock is a mutual-exclusion lock at a fixed offset of a shared region,
// implemented with compare-and-swap-style atomic access (the simulation's
// cooperative scheduler makes an unyielding read-modify-write atomic, the
// same guarantee the hardware CAS gives the real implementation). The
// paper replaces mutexes with spinlocks precisely so the untrusted OS is
// never involved in synchronization (§IV-C).
type SpinLock struct {
	ep  *Endpoint
	off uint64
	id  uint32 // this side's non-zero holder id
}

// NewSpinLock binds a lock at byte offset off with holder identity id.
// Both sides must use the same offset and distinct non-zero ids.
func NewSpinLock(ep *Endpoint, off uint64, id uint32) *SpinLock {
	if id == 0 {
		panic("ipc: spinlock id must be non-zero")
	}
	return &SpinLock{ep: ep, off: off, id: id}
}

// TryLock attempts one CAS; it reports whether the lock was taken.
func (l *SpinLock) TryLock(p *sim.Proc) (bool, error) {
	p.Sleep(l.ep.costs.SpinlockOp)
	v, err := l.ep.readU32(p, l.off)
	if err != nil {
		return false, err
	}
	if v != 0 {
		return false, nil
	}
	// No yield between the read and the write: atomic in the DES model.
	if err := l.ep.writeU32(p, l.off, l.id); err != nil {
		return false, err
	}
	return true, nil
}

// Lock spins until the lock is acquired. If the holder's partition fails,
// the next access traps and Lock returns ErrPeerFailed instead of spinning
// forever (A2).
func (l *SpinLock) Lock(p *sim.Proc) error {
	for {
		ok, err := l.TryLock(p)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		p.Sleep(pollQuantum)
	}
}

// Unlock releases the lock; it refuses to release a lock this side does not
// hold.
func (l *SpinLock) Unlock(p *sim.Proc) error {
	p.Sleep(l.ep.costs.SpinlockOp)
	v, err := l.ep.readU32(p, l.off)
	if err != nil {
		return err
	}
	if v != l.id {
		return fmt.Errorf("ipc: unlock of a lock held by %d, not us (%d)", v, l.id)
	}
	return l.ep.writeU32(p, l.off, 0)
}

// Pipe layout within a region (starting at a fixed offset):
//
//	off+0  head u32 (consumer index)
//	off+4  tail u32 (producer index)
//	off+8  closed u32
//	off+16 data ring
const (
	pipeHead   = 0
	pipeTail   = 4
	pipeClosed = 8
	pipeData   = 16
)

// Pipe is a byte stream over a shared region: single producer on one
// endpoint, single consumer on the other, flow-controlled by head/tail
// indices in the region itself.
type Pipe struct {
	ep   *Endpoint
	off  uint64
	size uint64 // ring capacity in bytes
}

// NewPipe binds a pipe of the given ring size at byte offset off. Both
// sides must use the same geometry; the ring must fit the region.
func NewPipe(ep *Endpoint, off uint64, ringBytes int) (*Pipe, error) {
	if off+pipeData+uint64(ringBytes) > ep.size {
		return nil, fmt.Errorf("ipc: pipe ring of %d bytes exceeds region", ringBytes)
	}
	return &Pipe{ep: ep, off: off, size: uint64(ringBytes)}, nil
}

// Write sends data, blocking (in virtual time) while the ring is full. It
// fails with ErrPeerFailed if the consumer's partition dies.
func (pp *Pipe) Write(p *sim.Proc, data []byte) error {
	sent := 0
	for sent < len(data) {
		head, err := pp.ep.readU32(p, pp.off+pipeHead)
		if err != nil {
			return err
		}
		tail, err := pp.ep.readU32(p, pp.off+pipeTail)
		if err != nil {
			return err
		}
		free := int(pp.size) - int(tail-head)
		if free <= 0 {
			p.Sleep(pollQuantum)
			continue
		}
		n := free
		if n > len(data)-sent {
			n = len(data) - sent
		}
		// Write possibly wrapping chunk.
		for n > 0 {
			pos := uint64(tail) % pp.size
			c := int(pp.size - pos)
			if c > n {
				c = n
			}
			if err := pp.ep.view.Write(p, pp.ep.base+pp.off+pipeData+pos, data[sent:sent+c]); err != nil {
				return pp.ep.translate(err)
			}
			p.Sleep(pp.ep.costs.Memcpy(c))
			sent += c
			tail += uint32(c)
			n -= c
		}
		if err := pp.ep.writeU32(p, pp.off+pipeTail, tail); err != nil {
			return err
		}
	}
	return nil
}

// Read fills buf, blocking until enough bytes arrive. ok=false means the
// pipe was closed by the producer after draining.
func (pp *Pipe) Read(p *sim.Proc, buf []byte) (int, error) {
	got := 0
	for got < len(buf) {
		head, err := pp.ep.readU32(p, pp.off+pipeHead)
		if err != nil {
			return got, err
		}
		tail, err := pp.ep.readU32(p, pp.off+pipeTail)
		if err != nil {
			return got, err
		}
		avail := int(tail - head)
		if avail <= 0 {
			closed, err := pp.ep.readU32(p, pp.off+pipeClosed)
			if err != nil {
				return got, err
			}
			if closed == 1 {
				return got, nil // EOF
			}
			p.Sleep(pollQuantum)
			continue
		}
		n := avail
		if n > len(buf)-got {
			n = len(buf) - got
		}
		for n > 0 {
			pos := uint64(head) % pp.size
			c := int(pp.size - pos)
			if c > n {
				c = n
			}
			if err := pp.ep.view.Read(p, pp.ep.base+pp.off+pipeData+pos, buf[got:got+c]); err != nil {
				return got, pp.ep.translate(err)
			}
			p.Sleep(pp.ep.costs.Memcpy(c))
			got += c
			head += uint32(c)
			n -= c
		}
		if err := pp.ep.writeU32(p, pp.off+pipeHead, head); err != nil {
			return got, err
		}
	}
	return got, nil
}

// CloseWrite marks the producer side closed (consumer sees EOF after
// draining).
func (pp *Pipe) CloseWrite(p *sim.Proc) error {
	return pp.ep.writeU32(p, pp.off+pipeClosed, 1)
}
