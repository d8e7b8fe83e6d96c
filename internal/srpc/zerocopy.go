package srpc

// Zero-copy payload grants and fused execution records (the sRPC data-plane
// optimization behind the serving plane's flow model).
//
// The classic streamed path moves every bulk payload through the ring: the
// owner pays RingPush + a bounded memcpy per record, and a batched inference
// costs three records (HtoD, Launch, Barrier) with a synchronous wait on the
// last. With a payload *arena* — a second trusted shared region granted next
// to the ring — the owner stages bulk bytes in place through its span-checked
// view (the PR 2 TLB caches the walk; the TZASC verdict rides on the physical
// access), then pushes ONE small fused record describing where the payload
// sits and which two mECalls to run. The executor span-checks the arena
// range, reads the payload in place, runs the copy call and the exec call
// back to back, and reports completion through a registered callback — no
// synchronous wait, no barrier record, no ring copy of the payload. The only
// virtual time charged for payload movement is the span permission check;
// the device DMA itself is still charged by the driver, exactly as before.
//
// Completion callbacks run in the executor's process context, not the
// submitter's. They must not block; sending on
// a sim.Port, firing a Signal or waking a condition are the intended uses.

import (
	"fmt"
	"sync"

	"cronus/internal/hw"
	"cronus/internal/sim"
	"cronus/internal/wire"
)

// ZCExecName is the pseudo-mECall name carried by fused records. It is
// intercepted by the executor before EDL dispatch, so it never appears in
// any enclave's EDL.
const ZCExecName = "__zc_exec"

// maxZCBytes bounds a fused record's declared payload length before the
// executor allocates a staging buffer for it (sanity limit, not a protocol
// constant: arenas are far smaller in practice).
const maxZCBytes = 1 << 24

// NotifyFn is a fused-record completion callback: the executor invokes it
// inline after the record's calls finish, with the first failing call's
// error (nil on success). p is the executor's process — callbacks may use it
// to send on ports or fire signals, but must not block or sleep.
type NotifyFn func(p *sim.Proc, err error)

type notifyKey struct{ stream, slot uint64 }

// notifyReg maps in-flight fused records to their completion callbacks,
// keyed by (stream id, record slot). A process-global registry — like the
// tracer's flow map — keeps the ring layout and virtual-time costs
// untouched; the mutex makes registration by submitters and consumption by
// executors race-free whatever goroutines they run on.
var (
	notifyMu  sync.Mutex
	notifyReg = map[notifyKey]NotifyFn{}
)

func putNotify(stream, slot uint64, fn NotifyFn) {
	notifyMu.Lock()
	notifyReg[notifyKey{stream, slot}] = fn
	notifyMu.Unlock()
}

func takeNotify(stream, slot uint64) (NotifyFn, bool) {
	notifyMu.Lock()
	k := notifyKey{stream, slot}
	fn, ok := notifyReg[k]
	if ok {
		delete(notifyReg, k)
	}
	notifyMu.Unlock()
	return fn, ok
}

// dropNotifies removes every registered callback of one stream without
// invoking it — teardown path. In-flight work lost to a peer failure is
// re-driven by the layer above (the serving plane's failover), which owns
// the authoritative in-flight set; firing half-dead callbacks here would
// race with that recovery.
func dropNotifies(stream uint64) {
	notifyMu.Lock()
	for k := range notifyReg {
		if k.stream == stream {
			delete(notifyReg, k)
		}
	}
	notifyMu.Unlock()
}

// arena is the owner side of a zero-copy payload grant: a second shared
// region, granted to the same peer as the ring, whose pages hold bulk
// payloads in place. It is carved into one payload slot per ring slot so
// the ring's own flow control doubles as arena reclamation (see CallZC).
type arena struct {
	base      uint64 // owner-side IPA
	peerIPA   uint64 // callee-side IPA
	pages     int
	gid       int
	slotBytes uint64 // payload capacity of one arena slot
	nslots    uint64 // == ring slot count
}

// GrantArena allocates a payload arena sized for fused calls carrying up to
// payloadCap bytes each and shares it with the stream's peer partition. Must
// be called once, after Connect, before any CallZC. The arena holds one
// payload slot per ring slot, which is what makes slot rotation in CallZC
// safe without any extra synchronization. The grant is tracked on the owning
// enclave and revoked with the stream.
func (c *Client) GrantArena(p *sim.Proc, payloadCap int) error {
	if c.closed {
		return ErrStreamClosed
	}
	if c.dead {
		return ErrPeerFailed
	}
	if c.arena != nil {
		return fmt.Errorf("srpc: stream %d already has an arena", c.streamID)
	}
	if payloadCap < 1 {
		return fmt.Errorf("srpc: arena payload capacity must be positive")
	}
	nslots := c.ring.slots
	slotBytes := (uint64(payloadCap) + 63) &^ 63 // cache-line rounded
	npages := int((nslots*slotBytes + hw.PageSize - 1) / hw.PageSize)
	m := c.owner.MOS()
	ipa, err := c.owner.AllocShared(p, npages)
	if err != nil {
		return err
	}
	peerPart, ok := m.SPM.Partition(spmPartID(c.peerEID))
	if !ok {
		return fmt.Errorf("srpc: no partition for eid %#x", c.peerEID)
	}
	peerIPA, gid, err := m.SPM.Share(m.Part, ipa, npages, peerPart)
	if err != nil {
		return err
	}
	c.owner.TrackGrant(gid)
	p.Sleep(sim.Duration(npages) * c.costs.MapPage)
	c.arena = &arena{base: ipa, peerIPA: peerIPA, pages: npages, gid: gid, slotBytes: slotBytes, nslots: nslots}
	return nil
}

// ArenaSize returns the granted arena's capacity in bytes (0 when no arena).
func (c *Client) ArenaSize() uint64 {
	if c.arena == nil {
		return 0
	}
	return uint64(c.arena.pages) * hw.PageSize
}

// ArenaWrite stages payload bytes at off in the arena. The bytes land in the
// trusted shared region through the owner's view — no ring copy — so the
// virtual time charged is only the span permission check.
func (c *Client) ArenaWrite(p *sim.Proc, off uint64, data []byte) error {
	if c.closed {
		return ErrStreamClosed
	}
	if c.dead {
		return ErrPeerFailed
	}
	if c.arena == nil {
		return fmt.Errorf("srpc: stream %d has no arena", c.streamID)
	}
	if off+uint64(len(data)) > c.ArenaSize() {
		return fmt.Errorf("srpc: arena write [%d,%d) exceeds %d-byte arena", off, off+uint64(len(data)), c.ArenaSize())
	}
	p.Sleep(c.costs.SpanCheck)
	if err := c.ring.view.Write(p, c.arena.base+off, data); err != nil {
		return c.fail(err)
	}
	mArenaBytes.Add(uint64(len(data)))
	return nil
}

// ZCRequest describes one fused zero-copy invocation: the payload bytes to
// stage, the mECall that consumes them (invoked with wire(U64 Dst, Blob
// payload) arguments — the cuMemcpyHtoD framing), and the follow-up exec
// mECall with caller-encoded arguments.
type ZCRequest struct {
	Payload  []byte // staged in the arena; at most GrantArena's payloadCap
	CopyCall string // payload-consuming mECall (e.g. cuMemcpyHtoD)
	Dst      uint64 // destination pointer passed to CopyCall
	ExecCall string // follow-up mECall (e.g. cuLaunchKernel)
	ExecArgs []byte // pre-encoded arguments for ExecCall
}

// CallZC stages the payload in the arena and pushes one fused record:
// CopyCall on the payload, then ExecCall, with completion (or the first
// error) delivered through notify. It returns after the push — there is no
// synchronous wait and no barrier record; callers needing back-pressure
// count outstanding notifications.
//
// Arena slots rotate with each call. Reuse is safe with no extra handshake
// because the arena has one payload slot per ring slot and every fused
// record occupies at least one ring slot: by the time slot k is reused,
// nslots fused records have been pushed since it was written, and push's
// flow control guarantees the executor consumed — payload read included —
// every record more than one ring of slots behind the producer index.
func (c *Client) CallZC(p *sim.Proc, req ZCRequest, notify NotifyFn) error {
	if c.closed {
		return ErrStreamClosed
	}
	if c.dead {
		return ErrPeerFailed
	}
	if c.arena == nil {
		return fmt.Errorf("srpc: stream %d has no arena", c.streamID)
	}
	if uint64(len(req.Payload)) > c.arena.slotBytes {
		return fmt.Errorf("srpc: fused payload of %d bytes exceeds %d-byte arena slot", len(req.Payload), c.arena.slotBytes)
	}
	if _, ok := c.edl.Lookup(req.CopyCall); !ok {
		return fmt.Errorf("srpc: mECall %q not in peer EDL", req.CopyCall)
	}
	if _, ok := c.edl.Lookup(req.ExecCall); !ok {
		return fmt.Errorf("srpc: mECall %q not in peer EDL", req.ExecCall)
	}
	off := (c.zcSeq % c.arena.nslots) * c.arena.slotBytes
	c.zcSeq++
	if err := c.ArenaWrite(p, off, req.Payload); err != nil {
		return err
	}
	args := wire.NewEncoder().
		U64(c.arena.peerIPA).U64(off).U64(uint64(len(req.Payload))).
		Str(req.CopyCall).U64(req.Dst).
		Str(req.ExecCall).Blob(req.ExecArgs).Bytes()
	slot := c.rid
	if notify != nil {
		putNotify(c.streamID, slot, notify)
	}
	if err := c.push(p, ZCExecName, args, kindNotify, 0); err != nil {
		if notify != nil {
			takeNotify(c.streamID, slot)
		}
		return err
	}
	mZCCalls.Inc()
	return nil
}

// execZC is the executor-side half of CallZC: span-check and read the arena
// payload in place, then run the two mECalls back to back in the executor's
// enclave context.
func (s *Server) execZC(p *sim.Proc, name string, args []byte) error {
	if name != ZCExecName {
		return fmt.Errorf("srpc: unexpected fused record %q", name)
	}
	d := wire.NewDecoder(args)
	arenaIPA := d.U64()
	off := d.U64()
	n := d.U64()
	copyCall := d.Str()
	dst := d.U64()
	execCall := d.Str()
	execArgs := d.Blob()
	if err := d.Err(); err != nil {
		return err
	}
	if n > maxZCBytes {
		return fmt.Errorf("srpc: fused payload of %d bytes exceeds sanity limit", n)
	}
	costs := s.enc.MOS().Costs
	// The arena pages are already mapped in this partition: the only
	// virtual time the payload handoff costs is the span permission check.
	// The view read underneath still performs the real TZASC + stage-2
	// checks, so a revoked grant faults exactly as the ring would.
	p.Sleep(costs.SpanCheck)
	payload := make([]byte, n)
	if err := s.enc.View().Read(p, arenaIPA+off, payload); err != nil {
		return translateFault(err)
	}
	if _, err := s.enc.InvokeStreamed(p, copyCall, wire.NewEncoder().U64(dst).Blob(payload).Bytes()); err != nil {
		return err
	}
	_, err := s.enc.InvokeStreamed(p, execCall, execArgs)
	return err
}
