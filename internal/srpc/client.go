package srpc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cronus/internal/attest"
	"cronus/internal/enclave"
	"cronus/internal/mos"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/trace"
	"cronus/internal/wire"
)

// Client is the caller-side (owner) end of one sRPC stream: it belongs to
// one calling thread of mE_A and streams mECalls to mE_B (§IV-C "to support
// multi-threading, CRONUS makes each thread create its own stream").
type Client struct {
	owner   *mos.Enclave
	peerEID uint32
	edl     *enclave.EDL
	tr      Transport

	ring     *ring
	streamID uint64
	track    string // precomputed trace track name ("stream-N")
	rid      uint64 // next free slot (producer index)
	calls    uint64 // records pushed on this stream (chaos hook ordinal)
	hook     *CallHook
	lastRec  uint64 // slot index of the most recently pushed record
	gid      int
	arena    *arena // zero-copy payload grant (nil until GrantArena)
	zcSeq    uint64 // fused-call ordinal, rotates arena slots
	closed   bool
	dead     bool

	// Reused per call, so a steady-state call allocates nothing that scales
	// with its payload: args holds the arguments a caller encodes for its
	// next call (Args); frame the record header, name and argument length
	// prefix push lays down ahead of the caller's argument bytes; zcArgs the
	// fused-record descriptor CallZC pushes; reply the result of the last
	// synchronous call (see Call for how long that stays valid). A stream
	// has one calling thread (§IV-C), so no two calls ever share them.
	args   wire.Encoder
	frame  wire.Encoder
	zcArgs wire.Encoder
	reply  []byte

	costs *sim.CostModel
}

// ErrForgedReport is Connect's refusal of a local report whose MAC does not
// verify under this machine's local seal key: something other than the SPM
// (the untrusted OS relaying it) produced it.
var ErrForgedReport = errors.New("srpc: local report not sealed by this machine's SPM")

// ErrReportIdentity refuses a genuine local report for another enclave or
// another request: one the normal OS replayed or rerouted.
var ErrReportIdentity = errors.New("srpc: local report identity mismatch")

// Connect establishes a stream from the owner enclave to peer eid (§IV-C):
// ① local attestation of the peer (automatic, verified against want),
// ② trusted shared memory establishment through the SPM,
// ③ dCheck — the peer proves secret_dhke possession through the region,
// ④ executor thread creation in the peer's partition.
//
// secret is secret_dhke from the peer's creation (the owner created it);
// peerEDL is the mECall table from the manifest the owner supplied.
func Connect(p *sim.Proc, owner *mos.Enclave, peerEID uint32, secret []byte, peerEDL *enclave.EDL, want Expected, tr Transport, pages int) (*Client, error) {
	if pages < 2 {
		pages = DefaultPages
	}
	m := owner.MOS()
	costs := m.Costs

	// ① Local attestation via untrusted memory, MAC-verified through the
	// SPM's local seal key; binds identity, measurement and co-location.
	// Stream ids come from the transport so independently booted platforms
	// in one process cannot interleave each other's id sequences.
	streamID := tr.NextStreamID()
	track := fmt.Sprintf("stream-%d", streamID)
	defer trace.Of(p.Kernel()).Span(p, "srpc", track, "connect")()
	nonce := streamID*2654435761 + 12345
	p.Sleep(costs.UntrustedMsg)
	rep, mac, err := tr.LocalReport(p, peerEID, nonce)
	if err != nil {
		return nil, fmt.Errorf("srpc: local attestation failed: %w", err)
	}
	p.Sleep(costs.LocalAttest)
	if !m.SPM.LSK().Verify(rep, mac) {
		return nil, ErrForgedReport
	}
	if rep.EnclaveID != peerEID || rep.Nonce != nonce {
		return nil, ErrReportIdentity
	}
	if rep.EnclaveHash != want.EnclaveHash {
		return nil, fmt.Errorf("srpc: peer enclave measurement mismatch (substituted mEnclave?): %w", attest.ErrMeasurementMismatch)
	}
	if rep.MOSHash != want.MOSHash {
		return nil, fmt.Errorf("srpc: peer mOS measurement mismatch (substituted mOS?): %w", attest.ErrMeasurementMismatch)
	}

	// ② Allocate smem in the owner's partition and share it with the
	// peer's partition through the SPM.
	peerPart, ok := m.SPM.Partition(spmPartID(peerEID))
	if !ok {
		return nil, fmt.Errorf("srpc: no partition for eid %#x", peerEID)
	}
	ipa, peerIPA, gid, err := owner.ShareWith(p, pages, peerPart)
	if err != nil {
		return nil, err
	}
	p.Sleep(sim.Duration(pages) * costs.MapPage)

	c := &Client{
		owner:    owner,
		peerEID:  peerEID,
		edl:      peerEDL,
		tr:       tr,
		hook:     tr.CallHook(),
		ring:     newRing(owner.View(), ipa, pages),
		streamID: streamID,
		track:    track,
		gid:      gid,
		costs:    costs,
	}
	// A refusal from here on dissolves the grant, since it returns no stream.
	established := false
	defer func() {
		if !established {
			c.teardown()
		}
	}()
	// Initialize the header.
	challenge := nonce ^ 0xdeadbeefcafef00d
	if err := c.ring.writeU64(p, offMagic, streamMagic); err != nil {
		return nil, translateFault(err)
	}
	if err := c.ring.writeU64(p, offChal, challenge); err != nil {
		return nil, translateFault(err)
	}

	// ③ Sealed setup request through the untrusted world + dCheck. The
	// establishment channels are bound to this stream's id so concurrent
	// per-thread streams (§IV-C) have independent replay windows. The
	// owner sends on the "owner->enclave" direction and receives on the
	// other — the mirror of the server's setupChannels.
	ownerTx, ownerRx := setupChannels(secret, streamID)
	req := wire.NewEncoder().U64(streamID).U64(peerIPA).U32(uint32(pages)).U64(challenge).Bytes()
	p.Sleep(costs.UntrustedMsg + costs.MACFixed)
	reply, err := tr.StreamSetup(p, peerEID, streamID, ownerTx.Seal(req))
	if err != nil {
		return nil, fmt.Errorf("srpc: stream setup failed: %w", err)
	}
	if _, err := ownerRx.Open(reply); err != nil {
		return nil, fmt.Errorf("srpc: setup reply rejected: %w", err)
	}
	status, err := c.ring.readU32(p, offDCheck)
	if err != nil {
		return nil, translateFault(err)
	}
	if status != 1 {
		return nil, fmt.Errorf("srpc: dCheck not performed")
	}
	gotMAC := make([]byte, 32)
	if err := c.ring.view.Read(p, c.ring.base+offDMAC, gotMAC); err != nil {
		return nil, translateFault(err)
	}
	wantMAC := dcheckMAC(secret, streamID, challenge)
	if !macEqual(gotMAC, wantMAC) {
		// A proof keyed by another secret_dhke: the region is not shared
		// with the genuine peer, or a relay answered each side of the
		// create with its own DH half.
		return nil, fmt.Errorf("srpc: dCheck failed — region not shared with the genuine peer: %w", attest.ErrTampered)
	}

	// ④ The normal world creates the executor thread on demand.
	p.Sleep(costs.ThreadCreate)
	if err := tr.SpawnExecutor(p, peerEID, streamID); err != nil {
		return nil, fmt.Errorf("srpc: executor creation failed: %w", err)
	}
	mStreams.Inc()
	established = true
	return c, nil
}

func macEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var diff byte
	for i := range a {
		diff |= a[i] ^ b[i]
	}
	return diff == 0
}

func spmPartID(eid uint32) spm.PartitionID { return spm.PartitionID(eid >> 24) }

// teardown clears stream state: dissolves the ring's and the arena's grants,
// returns their pages to the owner, and marks the stream dead so subsequent
// calls fail fast instead of touching the ring.
func (c *Client) teardown() {
	if !c.dead {
		c.dead = true
		c.owner.ReleaseShared(c.gid, c.ring.base, c.ring.pages)
		if c.arena != nil {
			c.owner.ReleaseShared(c.arena.gid, c.arena.base, c.arena.pages)
		}
		c.tr.Notifies().drop(c.streamID)
	}
}

// markDead clears stream state after a peer failure (§IV-D: "CRONUS's sRPC
// automatically clears state when getting the signal").
func (c *Client) markDead() {
	if !c.dead {
		mPeerFailures.Inc()
		c.teardown()
	}
}

func (c *Client) fail(err error) error {
	err = translateFault(err)
	switch {
	case errors.Is(err, ErrPeerFailed):
		c.markDead()
	case errors.Is(err, mos.ErrRingCorrupt):
		c.teardown() // counted as srpc.ring.corruptions by the detector
	}
	return err
}

// corruptf builds an mos.ErrRingCorrupt-wrapped error for an owner-side
// consistency violation.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", mos.ErrRingCorrupt, fmt.Sprintf(format, args...))
}

// admit is the owner-side check of a stream operation: it refuses one on a
// closed or failed stream, and one naming an mECall the peer's EDL does not
// declare. spec is the first name's.
func (c *Client) admit(names ...string) (spec enclave.MECallSpec, err error) {
	switch {
	case c.closed:
		return spec, ErrStreamClosed
	case c.dead:
		return spec, ErrPeerFailed
	}
	for i := len(names) - 1; i >= 0; i-- {
		var ok bool
		if spec, ok = c.edl.Lookup(names[i]); !ok {
			return spec, fmt.Errorf("srpc: mECall %q not in peer EDL", names[i])
		}
	}
	return spec, nil
}

// Call issues an mECall on the stream. Calls declared async in the EDL
// return immediately after enqueuing (no context switch, no wait);
// synchronous calls block until the executor publishes the result.
//
// args is copied into the ring before Call returns, so the caller may reuse
// it at once. The result is the other way round: it aliases a buffer the
// client reuses, and is valid only until the next call on this client —
// decode it or copy it before calling again.
func (c *Client) Call(p *sim.Proc, name string, args []byte) ([]byte, error) {
	return c.CallVec(p, name, args, nil)
}

// Args returns the stream's argument scratch, emptied. A caller encodes the
// arguments of its next call into it and passes the bytes to that call,
// which copies them into the ring; the next Args overwrites them. A launch
// record therefore costs the caller no allocation, however often it is made.
func (c *Client) Args() *wire.Encoder { return c.args.Reset() }

// CallVec is Call with the argument bytes supplied in two pieces, laid end to
// end in the record: head, typically a few wire-encoded words (a destination
// pointer, a length prefix), and bulk, the caller's payload. Each piece goes
// from the caller's slice straight into the ring, so a transfer does not
// first assemble head‖bulk in a buffer of its own — the one copy the host
// makes is the one the model charges. Result ownership is Call's.
func (c *Client) CallVec(p *sim.Proc, name string, head, bulk []byte) ([]byte, error) {
	spec, err := c.admit(name)
	if err != nil {
		return nil, err
	}
	if spec.Async {
		return nil, c.push(p, name, head, bulk, kindAsync, 0)
	}
	return c.callSync(p, name, head, bulk, 4096)
}

// CallSyncCap issues a synchronous mECall reserving respCap bytes for the
// result (use for large DtoH transfers). Result ownership is Call's.
func (c *Client) CallSyncCap(p *sim.Proc, name string, args []byte, respCap int) ([]byte, error) {
	if _, err := c.admit(name); err != nil {
		return nil, err
	}
	return c.callSync(p, name, args, nil, respCap)
}

func (c *Client) callSync(p *sim.Proc, name string, head, bulk []byte, respCap int) ([]byte, error) {
	recSlot := c.rid
	if err := c.push(p, name, head, bulk, kindSync, respCap); err != nil {
		return nil, err
	}
	// Wait for the executor to pass the record (it publishes the result
	// before advancing Sid).
	mSyncWaits.Inc()
	if err := c.waitSidPast(p, c.rid); err != nil {
		return nil, c.fail(err)
	}
	if err := c.checkSticky(p); err != nil {
		return nil, err
	}
	// The reply frame sits where the record was. No more of it is read than
	// its length word declares and the record holds (mos.DecodeReply).
	var pre [8]byte
	if err := c.ring.readAt(p, recSlot, 0, pre[:]); err != nil {
		return nil, c.fail(err)
	}
	n := 8 + min(uint64(binary.LittleEndian.Uint32(pre[4:])), (c.rid-recSlot)*SlotSize-8)
	if uint64(cap(c.reply)) < n {
		c.reply = make([]byte, n)
	}
	frame := append(c.reply[:0], pre[:]...)[:n]
	if err := c.ring.readAt(p, recSlot, 8, frame[8:]); err != nil {
		return nil, c.fail(err)
	}
	res, err := mos.DecodeReply(name, recSlot, frame)
	if _, refused := err.(*mos.CallError); err != nil && !refused {
		return nil, c.fail(err)
	}
	return res, err
}

// push frames and enqueues one record whose argument bytes are head‖bulk,
// with slot-level flow control.
func (c *Client) push(p *sim.Proc, name string, head, bulk []byte, kind uint32, respCap int) error {
	wire.Recycle(c.reply) // the previous call's result dies here
	argLen := len(head) + len(bulk)
	payloadLen := 4 + len(name) + 4 + argLen // wire(Str name, Blob args)
	slots := recordSlots(uint32(payloadLen), uint32(respCap))
	if slots > c.ring.slots {
		return fmt.Errorf("srpc: record of %d slots exceeds ring capacity of %d", slots, c.ring.slots)
	}
	// Flow control: wait until the ring has room. Same read grid as the
	// polling loop it replaced — immediately, then every quantum — with a
	// doorbell park instead of per-quantum timer events.
	first := p.Now()
	var db *doorbell
	for {
		sid, err := c.ring.readU64(p, offSid)
		if err != nil {
			if db != nil {
				db.disarm()
			}
			return c.fail(err)
		}
		if sid > c.rid {
			// The consumer can never pass the producer; either the Sid
			// word was corrupted or the executor poisoned it after
			// detecting corruption on its side. Without this check a
			// poisoned Sid underflows the occupancy computation below and
			// the pusher waits forever.
			if db != nil {
				db.disarm()
			}
			return c.fail(corruptf("consumer index %d ahead of producer %d", sid, c.rid))
		}
		if c.rid+slots-sid <= c.ring.slots {
			if db != nil {
				db.disarm()
			}
			// Fused records may be pushed concurrently; a last-writer
			// gauge there would make snapshots depend on host scheduling.
			if kind != kindNotify {
				gRingOcc.Set(int64(c.rid + slots - sid))
			}
			break
		}
		if db == nil {
			// The record fits once Sid reaches rid+slots-ringSlots. A
			// concurrent fused push only raises c.rid, so the target
			// stays a bound the wait cannot end below.
			db = c.ring.armDoorbell(p.Kernel(), c.rid+slots-c.ring.slots, [2]uint64{offSid, 8})
		}
		if db == nil {
			p.Sleep(pollQuantum)
			continue
		}
		alignedWait(p, db, first, pollQuantum, p.Now())
	}
	// Everything of the record that is not the caller's bytes: the header
	// words, the name, and the length prefix of the arguments.
	frame := c.frame.Reset().
		U32(uint32(payloadLen)).U32(kind).U32(uint32(slots)).U32(uint32(respCap)).
		Str(name).U32(uint32(argLen)).Bytes()
	total := len(frame) + argLen
	// Bulk payloads are produced directly into the trusted shared region
	// (zero-copy staging, §IV-C); only the record metadata is copied by
	// the sRPC layer itself.
	meta := total
	if meta > 256 {
		meta = 256
	}
	p.Sleep(c.costs.RingPush + c.costs.Memcpy(meta))
	at := 0
	for _, piece := range [...][]byte{frame, head, bulk} {
		if len(piece) == 0 {
			continue
		}
		if err := c.ring.writeAt(p, c.rid, at, piece); err != nil {
			return c.fail(err)
		}
		at += len(piece)
	}
	// The record is in the ring: the scratch it was framed from is dead.
	wire.Recycle(c.args.Bytes())
	wire.Recycle(c.frame.Bytes())
	wire.Recycle(c.zcArgs.Bytes())
	c.lastRec = c.rid
	c.rid += slots
	if err := c.ring.writeU64(p, offRid, c.rid); err != nil {
		return c.fail(err)
	}
	// Propagate the caller's span context to the executor that will consume
	// this record — the simulated analogue of a trace-context header,
	// carried out-of-band so ring layout and virtual-time costs are
	// untouched (see trace.PutFlow).
	if tc := trace.Of(p.Kernel()); tc != nil {
		if tid, sid := p.TraceCtx(); tid != 0 {
			tc.PutFlow(c.streamID, c.lastRec, trace.SpanCtx{Trace: tid, Span: sid})
		}
	}
	mCalls.Inc()
	mBytesMoved.Add(uint64(total))
	c.calls++
	if c.hook.fn != nil {
		c.hook.fn(p, c, c.calls)
	}
	return nil
}

// waitSidPast blocks until the executor advances Sid past target. It models
// the polling loop it replaced — first read RingPoll after entry, then one
// read every RingPoll+pollQuantum — but parks on a doorbell between reads
// instead of scheduling a timer event per quantum; alignedWait restores the
// grid instant before each re-read, so the observed Sid values, faults, and
// the return instant are identical to polling.
func (c *Client) waitSidPast(p *sim.Proc, target uint64) error {
	defer trace.Of(p.Kernel()).Span(p, "srpc", c.track, "sync-wait")()
	first := p.Now() + sim.Time(c.costs.RingPoll)
	period := c.costs.RingPoll + pollQuantum
	var db *doorbell
	defer func() {
		if db != nil {
			db.disarm()
		}
	}()
	p.Sleep(c.costs.RingPoll)
	for {
		sid, err := c.ring.readU64(p, offSid)
		if err != nil {
			return err
		}
		if sid > c.rid {
			// Poisoned or corrupted consumer index (see push). Surfacing
			// this as mos.ErrRingCorrupt — not a satisfied wait — is what lets
			// a caller blocked in a synchronous mECall escape when the
			// executor aborts on a corrupt record.
			return corruptf("consumer index %d ahead of producer %d", sid, c.rid)
		}
		if sid >= target {
			return nil
		}
		if db == nil {
			db = c.ring.armDoorbell(p.Kernel(), target, [2]uint64{offSid, 8})
		}
		if db == nil {
			// Header word not mapped (teardown in progress): keep the
			// plain polling cadence; the next read faults.
			p.Sleep(period)
			continue
		}
		alignedWait(p, db, first, period, p.Now())
	}
}

// checkSticky surfaces the sticky failure the executor published, if any,
// and consumes it — unless it is a ring corruption: that one stays, so every
// later caller sees the same terminal condition.
func (c *Client) checkSticky(p *sim.Proc) error {
	code, err := c.ring.readU32(p, offSticky)
	if err != nil {
		return c.fail(err)
	}
	if code == 0 {
		return nil
	}
	var f [offErrName + 4 + maxErrName - offErrSid]byte
	if err := c.ring.view.Read(p, c.ring.base+offErrSid, f[:]); err != nil {
		return c.fail(err)
	}
	nb := f[offErrName-offErrSid:]
	spec, _ := c.edl.LookupBytes(nb[4 : 4+min(binary.LittleEndian.Uint32(nb), maxErrName)])
	sid := binary.LittleEndian.Uint64(f[:])
	if _, err = mos.DecodeReply(spec.Name, sid, f[8:16+mos.MaxRefusal]); errors.Is(err, mos.ErrRingCorrupt) {
		return c.fail(err)
	}
	_ = c.ring.writeU32(p, offSticky, 0) // consumed
	return err
}

// Barrier is streamCheck (§IV-C): it blocks until every enqueued record has
// executed (Sid == Rid) and surfaces any sticky asynchronous error.
func (c *Client) Barrier(p *sim.Proc) error {
	if _, err := c.admit(); err != nil {
		return err
	}
	mSyncWaits.Inc()
	if err := c.waitSidPast(p, c.rid); err != nil {
		return c.fail(err)
	}
	return c.checkSticky(p)
}

// Close drains the stream, signals the executor to stop, and releases the
// shared regions (teardown).
func (c *Client) Close(p *sim.Proc) error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.dead {
		return nil
	}
	if err := c.waitSidPast(p, c.rid); err != nil {
		c.markDead()
		return nil // peer already gone; state cleared
	}
	_ = c.ring.writeU32(p, offClosed, 1)
	c.teardown()
	return nil
}

// StreamID returns the transport-minted id of this stream (deterministic
// 1,2,3,… per platform); chaos fault triggers are keyed on it.
func (c *Client) StreamID() uint64 { return c.streamID }

// Abandon tears the owner side of the stream down without draining the ring
// or signalling the executor: the grant is revoked and the client marked
// closed. It is the recovery action after a timed-out or corrupted stream —
// the executor, if still alive, faults on its next ring access and exits.
// Abandon is idempotent and never blocks.
func (c *Client) Abandon() {
	if c.closed {
		return
	}
	c.closed = true
	c.teardown()
}

// InjectRecordCorruption XORs the slots word in the header of the most
// recently pushed record, in place in the ring. Unlike a Rid flip — which
// the owner's next push rewrites with a clean value — a record header is
// written exactly once, so the corruption reliably reaches the executor
// whenever it has not yet consumed the record. The executor's framing
// validation (recordSlots) must reject it and abort the stream with
// mos.ErrRingCorrupt semantics.
func (c *Client) InjectRecordCorruption(p *sim.Proc, mask uint32) error {
	if c.closed || c.dead {
		return ErrStreamClosed
	}
	if mask == 0 {
		mask = 1
	}
	addr := c.ring.slotAddr(c.lastRec) - c.ring.base + 8 // slots word
	v, err := c.ring.readU32(p, addr)
	if err != nil {
		return c.fail(err)
	}
	if err := c.ring.writeU32(p, addr, v^mask); err != nil {
		return c.fail(err)
	}
	return nil
}
