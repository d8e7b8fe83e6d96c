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
// sits and which two mECalls to run. The executor checks the declared range
// against the arena geometry the owner published at grant time, reads the
// payload out of the arena — through its own span-checked view, once, into a
// per-stream staging buffer laid out as the copy call's arguments — runs the
// copy call and the exec call back to back, and reports completion through a
// registered callback: no synchronous wait, no barrier record, and the
// payload never passes through the ring. On the host that is the same three
// copies a streamed HtoD makes (caller → arena, arena → staging, staging →
// device); what "zero-copy" buys is in the model: the only virtual time
// charged for payload movement is the span permission check, the device DMA
// itself still being charged by the driver, exactly as before.
//
// Completion callbacks run in the executor's process context, not the
// submitter's. They must not block; sending on
// a sim.Port, firing a Signal or waking a condition are the intended uses.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cronus/internal/hw"
	"cronus/internal/sim"
	"cronus/internal/wire"
)

// ZCExecName is the pseudo-mECall name carried by fused records. It is
// intercepted by the executor before EDL dispatch, so it never appears in
// any enclave's EDL.
const ZCExecName = "__zc_exec"

// ErrArenaBounds reports a fused record whose declared payload does not lie
// inside one slot of the arena its stream was granted. The executor refuses
// it before reading or allocating anything, so the length a record declares
// never sizes a buffer; the error reaches the submitter through the record's
// completion callback.
var ErrArenaBounds = errors.New("srpc: fused payload outside the granted arena slot")

// maxZCBytes bounds the arena slot size an executor accepts from the ring
// header (sanity limit, not a protocol constant: arena slots are far smaller
// in practice). Per record, the bound is the slot size itself.
const maxZCBytes = 1 << 24

// NotifyFn is a fused-record completion callback: the executor invokes it
// inline after the record's calls finish, with the first failing call's
// error (nil on success). p is the executor's process — callbacks may use it
// to send on ports or fire signals, but must not block or sleep.
type NotifyFn func(p *sim.Proc, err error)

// Notifies maps one platform's in-flight fused records to their completion
// callbacks: stream id, then record slot. Keeping it beside the ring rather
// than in it leaves the ring layout and virtual-time costs untouched. The
// platform's Transport owns the table — the owner reaches it through the
// transport it connected over, the executor through the Server that
// transport created — so platforms alive in one process that mint the same
// stream ids never see each other's callbacks. It needs no lock: both ends
// of a stream are processes of one kernel, which runs one at a time.
type Notifies map[uint64]map[uint64]NotifyFn

func (n Notifies) put(stream, slot uint64, fn NotifyFn) {
	m := n[stream]
	if m == nil {
		m = make(map[uint64]NotifyFn)
		n[stream] = m
	}
	m[slot] = fn
}

func (n Notifies) take(stream, slot uint64) (NotifyFn, bool) {
	m := n[stream]
	fn, ok := m[slot]
	if ok {
		delete(m, slot)
	}
	return fn, ok
}

// drop forgets every registered callback of one stream without invoking it —
// teardown path. In-flight work lost to a peer failure is re-driven by the
// layer above (the serving plane's failover), which owns the authoritative
// in-flight set; firing half-dead callbacks here would race with that
// recovery.
func (n Notifies) drop(stream uint64) { delete(n, stream) }

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
	if _, err := c.admit(); err != nil {
		return err
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
	peerPart, ok := c.owner.MOS().SPM.Partition(spmPartID(c.peerEID))
	if !ok {
		return fmt.Errorf("srpc: no partition for eid %#x", c.peerEID)
	}
	ipa, peerIPA, gid, err := c.owner.ShareWith(p, npages, peerPart)
	if err != nil {
		return err
	}
	// Recorded before anything can fail, so a teardown revokes this grant too.
	c.arena = &arena{base: ipa, peerIPA: peerIPA, pages: npages, gid: gid, slotBytes: slotBytes, nslots: nslots}
	p.Sleep(sim.Duration(npages) * c.costs.MapPage)
	// Publish the geometry in the ring header — trusted shared memory the
	// executor already reads its indices from — so it can hold every fused
	// record to the slot size granted here rather than to what the record
	// itself declares.
	if err := c.ring.writeU64(p, offArenaIPA, peerIPA); err != nil {
		return c.fail(err)
	}
	if err := c.ring.writeU64(p, offArenaSlot, slotBytes); err != nil {
		return c.fail(err)
	}
	return nil
}

// ArenaWrite stages payload bytes at off in the arena. The bytes land in the
// trusted shared region through the owner's view — no ring copy — so the
// virtual time charged is only the span permission check.
func (c *Client) ArenaWrite(p *sim.Proc, off uint64, data []byte) error {
	if _, err := c.admit(); err != nil {
		return err
	}
	if c.arena == nil {
		return fmt.Errorf("srpc: stream %d has no arena", c.streamID)
	}
	if size := uint64(c.arena.pages) * hw.PageSize; off+uint64(len(data)) > size {
		return fmt.Errorf("srpc: arena write [%d,%d) exceeds %d-byte arena", off, off+uint64(len(data)), size)
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
	if _, err := c.admit(req.CopyCall, req.ExecCall); err != nil {
		return err
	}
	if c.arena == nil {
		return fmt.Errorf("srpc: stream %d has no arena", c.streamID)
	}
	if uint64(len(req.Payload)) > c.arena.slotBytes {
		return fmt.Errorf("srpc: fused payload of %d bytes exceeds %d-byte arena slot", len(req.Payload), c.arena.slotBytes)
	}
	off := (c.zcSeq % c.arena.nslots) * c.arena.slotBytes
	c.zcSeq++
	if err := c.ArenaWrite(p, off, req.Payload); err != nil {
		return err
	}
	args := c.zcArgs.Reset().
		U64(c.arena.peerIPA).U64(off).U64(uint64(len(req.Payload))).
		Str(req.CopyCall).U64(req.Dst).
		Str(req.ExecCall).Blob(req.ExecArgs).Bytes()
	slot := c.rid
	if notify != nil {
		c.tr.Notifies().put(c.streamID, slot, notify)
	}
	if err := c.push(p, ZCExecName, args, nil, kindNotify, 0); err != nil {
		if notify != nil {
			c.tr.Notifies().take(c.streamID, slot)
		}
		return err
	}
	mZCCalls.Inc()
	return nil
}

// execZC is the executor-side half of CallZC: hold the declared range to the
// granted arena slot, read the payload out of the arena once — directly
// behind the (dst, length) prefix the copy call's arguments start with — then
// run the two mECalls back to back in the executor's enclave context. name
// and args alias the record's staging buffer.
func (s *Server) execZC(p *sim.Proc, st *serverStream, name string, args []byte) error {
	if name != ZCExecName {
		return fmt.Errorf("srpc: unexpected fused record %q", name)
	}
	d := wire.NewDecoder(args)
	arenaIPA := d.U64()
	off := d.U64()
	n := d.U64()
	copyCall := st.names.Intern(d.StrRef())
	dst := d.U64()
	execCall := st.names.Intern(d.StrRef())
	execArgs := d.BlobRef()
	if err := d.Err(); err != nil {
		return err
	}
	if st.arenaSlot == 0 {
		var err error
		if st.arenaIPA, err = st.ring.readU64(p, offArenaIPA); err != nil {
			return translateFault(err)
		}
		if st.arenaSlot, err = st.ring.readU64(p, offArenaSlot); err != nil {
			return translateFault(err)
		}
	}
	// One arena slot per ring slot (GrantArena): the payload must sit
	// inside a single slot of the arena this stream was granted. This also
	// bounds the staging buffer below by the slot size.
	if arenaIPA != st.arenaIPA || st.arenaSlot == 0 || st.arenaSlot > maxZCBytes || n > st.arenaSlot ||
		off/st.arenaSlot >= st.ring.slots || off%st.arenaSlot+n > st.arenaSlot {
		return fmt.Errorf("%w: [%d,+%d) at %#x, slots of %d bytes at %#x",
			ErrArenaBounds, off, n, arenaIPA, st.arenaSlot, st.arenaIPA)
	}
	costs := s.enc.MOS().Costs
	// The arena pages are already mapped in this partition: the only
	// virtual time the payload handoff costs is the span permission check.
	// The read below goes through the stream's own view — the one its ring
	// accesses use, so the arena's translations stay cached across records
	// — and still performs the real TZASC + stage-2 checks: a revoked grant
	// faults exactly as the ring would.
	p.Sleep(costs.SpanCheck)
	const prefix = 8 + 4 // wire(U64 dst, Blob payload) up to the payload
	if cap(st.zc) < prefix+int(n) {
		st.zc = make([]byte, prefix+int(st.arenaSlot))
	}
	copyArgs := st.zc[:prefix+int(n)]
	binary.LittleEndian.PutUint64(copyArgs[0:], dst)
	binary.LittleEndian.PutUint32(copyArgs[8:], uint32(n))
	if err := st.ring.view.Read(p, arenaIPA+off, copyArgs[prefix:]); err != nil {
		return translateFault(err)
	}
	// Neither call's result is delivered (completion is the callback), so
	// both write to the record's reply encoder, which a fused record never
	// publishes.
	if err := s.enc.InvokeStreamed(p, copyCall, copyArgs, &st.res, &st.scratch); err != nil {
		return err
	}
	return s.enc.InvokeStreamed(p, execCall, execArgs, &st.res, &st.scratch)
}
