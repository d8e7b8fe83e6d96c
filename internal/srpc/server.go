package srpc

import (
	"errors"
	"fmt"
	"strconv"

	"cronus/internal/attest"
	"cronus/internal/enclave"
	"cronus/internal/mos"
	"cronus/internal/sim"
	"cronus/internal/trace"
	"cronus/internal/wire"
)

// noopEnd is the shared do-nothing span closer for the disabled-trace path.
var noopEnd = func() {}

// Transport is the untrusted normal world's relay role in sRPC: it carries
// the (MAC-protected) establishment messages and creates executor threads.
// The normal world can drop or corrupt this traffic — establishment then
// fails safe — but it cannot forge it.
type Transport interface {
	// LocalReport fetches an SPM-sealed local attestation report for eid.
	LocalReport(p *sim.Proc, eid uint32, nonce uint64) (attest.LocalReport, []byte, error)
	// StreamSetup relays a sealed stream-setup request for one stream to
	// eid's mOS.
	StreamSetup(p *sim.Proc, eid uint32, streamID uint64, msg attest.SealedMsg) (attest.SealedMsg, error)
	// SpawnExecutor asks the normal world to start the executor thread
	// for an established stream.
	SpawnExecutor(p *sim.Proc, eid uint32, streamID uint64) error
	// NextStreamID mints the next stream id on this platform. Keeping the
	// counter on the transport (not a package global) means independently
	// booted platforms in one process each get a deterministic 1,2,3,…
	// sequence regardless of interleaving.
	NextStreamID() uint64
	// Notifies returns this platform's fused-record completion table: the
	// one the transport handed every Server it created.
	Notifies() Notifies
	// CallHook returns this platform's push-observer slot.
	CallHook() *CallHook
}

// ErrNoEndpoint refuses an establishment message for an enclave without an
// sRPC endpoint in the partition it was sent to.
var ErrNoEndpoint = errors.New("no sRPC endpoint")

// Server is the callee-side sRPC endpoint wrapped around one mEnclave. The
// secure side of the SMC gate creates one per enclave; its mOS hosts the
// executor threads.
// One enclave serves many streams (one per caller thread, §IV-C).
type Server struct {
	enc      *mos.Enclave
	streams  map[uint64]*serverStream
	notifies Notifies
}

type serverStream struct {
	id      uint64
	ring    *ring
	track   string // precomputed trace track name ("stream-N")
	sid     uint64
	running bool

	// The executor's buffers, reused record after record (the stream has
	// one executor, and it runs one record at a time). stage receives a
	// record's body — wire(name, args) — out of the ring and is what the
	// mECall sees as args; it grows to the largest record seen, which the
	// validated header bounds by the ring. zc is the same for a fused
	// record's arena payload, bounded by the arena slot. res is where a
	// synchronous record's reply is encoded before it is written back.
	// scratch is what the mECall may keep decoded arguments in (an NPU
	// stream's instructions).
	stage   []byte
	zc      []byte
	res     wire.Encoder
	scratch enclave.Scratch
	// names holds the mECall names this stream has carried, so naming a
	// call again allocates nothing (bounded: the owner chooses the bytes).
	names wire.Names

	// Arena geometry the owner published in the ring header (GrantArena),
	// read on the first fused record.
	arenaIPA  uint64
	arenaSlot uint64
}

// bodyBuf returns the staging buffer cut to the body of the record h heads.
// h has been validated: payloadLen fits the record's own slots and those fit
// the ring, so the buffer never outgrows the ring whatever the owner writes.
func (st *serverStream) bodyBuf(h recHeader) []byte {
	if cap(st.stage) < int(h.payloadLen) {
		st.stage = make([]byte, int(h.slots)*SlotSize)
	}
	return st.stage[:h.payloadLen]
}

// recycle hands the stream's buffers to the recycle hook (wire.Recycle) once
// a record is done with them.
func (st *serverStream) recycle() {
	wire.Recycle(st.stage)
	wire.Recycle(st.zc)
	wire.Recycle(st.res.Bytes())
}

// NewServer wraps an enclave as an sRPC endpoint whose executors deliver
// fused-record completions through notifies, the creating transport's table.
func NewServer(e *mos.Enclave, notifies Notifies) *Server {
	return &Server{
		enc:      e,
		streams:  make(map[uint64]*serverStream),
		notifies: notifies,
	}
}

// setupChannels derives the per-stream establishment channels from
// secret_dhke: binding the stream id into the key defeats cross-stream
// splicing, and the per-direction sequence defeats replay within a stream.
func setupChannels(secret []byte, streamID uint64) (rx, tx *attest.Channel) {
	id := "srpc-setup:" + strconv.FormatUint(streamID, 10)
	return attest.NewChannelPair(secret, id+":owner->enclave", id+":enclave->owner")
}

// Enclave returns the wrapped enclave.
func (s *Server) Enclave() *mos.Enclave { return s.enc }

// HandleSetup processes a sealed stream-setup request relayed through the
// untrusted world: it maps the shared region granted by the owner, performs
// dCheck by writing the secret_dhke proof through the region, and registers
// the stream. Request payload: wire(streamID u64, peerIPA u64, pages u32,
// challenge u64).
//
// A setup for an already-registered stream id is refused: a replayed setup
// would otherwise reset Sid and re-execute consumed records.
func (s *Server) HandleSetup(p *sim.Proc, streamID uint64, msg attest.SealedMsg) (attest.SealedMsg, error) {
	if _, dup := s.streams[streamID]; dup {
		return attest.SealedMsg{}, fmt.Errorf("srpc: stream %d already established (replayed setup?): %w", streamID, attest.ErrReplayed)
	}
	rx, tx := setupChannels(s.enc.Secret(), streamID)
	payload, err := rx.Open(msg)
	if err != nil {
		return attest.SealedMsg{}, fmt.Errorf("srpc: setup rejected: %w", err)
	}
	d := wire.NewDecoder(payload)
	innerID := d.U64()
	peerIPA := d.U64()
	pages := d.U32()
	challenge := d.U64()
	if err := d.Err(); err != nil {
		return attest.SealedMsg{}, err
	}
	if innerID != streamID {
		return attest.SealedMsg{}, fmt.Errorf("srpc: stream id mismatch (spliced setup?)")
	}
	costs := s.enc.MOS().Costs
	p.Sleep(costs.StreamSetup)
	st := &serverStream{
		id:    streamID,
		ring:  newRing(s.enc.View(), peerIPA, int(pages)),
		track: fmt.Sprintf("stream-%d", streamID),
	}
	// dCheck: prove possession of secret_dhke through the shared memory
	// itself (§IV-C). If the SPM mapped us the wrong region — or we are a
	// substituted enclave — the owner's verification fails.
	mac := dcheckMAC(s.enc.Secret(), streamID, challenge)
	if err := st.ring.view.Write(p, st.ring.base+offDMAC, mac); err != nil {
		return attest.SealedMsg{}, translateFault(err)
	}
	if err := st.ring.writeU32(p, offDCheck, 1); err != nil {
		return attest.SealedMsg{}, translateFault(err)
	}
	s.streams[streamID] = st
	return tx.Seal(wire.NewEncoder().U64(streamID).Bytes()), nil
}

// ErrNoStream refuses an executor for a stream that is not set up, or that
// already has one: a spawn the normal OS altered or replayed.
var ErrNoStream = errors.New("srpc: no stream awaiting an executor")

// Executor returns the executor loop of a stream that is set up and not yet
// served, for the executor thread to run inside the callee's partition.
func (s *Server) Executor(streamID uint64) (func(*sim.Proc), error) {
	if st, ok := s.streams[streamID]; !ok || st.running {
		return nil, fmt.Errorf("%w (stream %d)", ErrNoStream, streamID)
	}
	return func(p *sim.Proc) { s.runExecutor(p, streamID) }, nil
}

// runExecutor is the body of the executor thread T (§IV-C): it drains the
// ring, executes each mECall strictly in order, publishes results for
// synchronous records, and advances Sid. It returns when the stream closes
// or the peer fails.
func (s *Server) runExecutor(p *sim.Proc, streamID uint64) {
	st, ok := s.streams[streamID]
	if !ok || st.running {
		return // unknown stream, or a duplicated executor (replay attempt)
	}
	st.running = true
	defer delete(s.streams, streamID)
	costs := s.enc.MOS().Costs
	r := st.ring
	// Idle stretches poll Rid/Closed on the grid {anchor + k·(RingPoll+
	// quantum)}; between grid reads the thread parks on a doorbell instead
	// of burning a timer event per quantum. idleAnchor < 0 means the last
	// iteration did work, so the next read is RingPoll after it finished —
	// exactly the replaced loop's cadence.
	idleAnchor := sim.Time(-1)
	idlePeriod := costs.RingPoll + pollQuantum
	var db *doorbell
	defer func() {
		if db != nil {
			db.disarm()
		}
	}()
	for {
		if idleAnchor < 0 {
			p.Sleep(costs.RingPoll)
		}
		rid, err := r.readU64(p, offRid)
		if err != nil {
			return // peer failed: traps handled, thread exits (no deadlock, A2)
		}
		if rid < st.sid || rid-st.sid > r.slots {
			// The producer index can never regress below our consumer
			// index, and flow control bounds it to one ring of backlog. A
			// value outside that window is a corrupted header word — abort
			// before trusting any record it implies.
			s.corrupt(p, st, corruptf("producer index %d outside window [%d, %d]", rid, st.sid, st.sid+r.slots))
			return
		}
		if st.sid >= rid {
			closed, err := r.readU32(p, offClosed)
			if err != nil || closed == 1 {
				delete(s.streams, streamID)
				return
			}
			if idleAnchor < 0 {
				idleAnchor = p.Now()
			}
			if db == nil {
				db = r.armDoorbell(p.Kernel(), 0, [2]uint64{offRid, 8}, [2]uint64{offClosed, 4})
			}
			if db == nil {
				p.Sleep(idlePeriod)
				continue
			}
			alignedWait(p, db, idleAnchor, idlePeriod, p.Now())
			continue
		}
		idleAnchor = -1
		// Read the record header at sid and validate it before trusting
		// any of its fields (parseRecHeader).
		var hdr [recHdrSize]byte
		if err := r.readAt(p, st.sid, 0, hdr[:]); err != nil {
			return
		}
		h, err := parseRecHeader(&hdr, r.slots)
		if err != nil {
			s.corrupt(p, st, fmt.Errorf("%w at sid %d", err, st.sid))
			return
		}
		body := st.bodyBuf(h)
		if err := r.readAt(p, st.sid, recHdrSize, body); err != nil {
			return
		}
		bd := wire.NewDecoder(body)
		name := st.names.Intern(bd.StrRef())
		args := bd.BlobRef() // lent to the mECall; dies when the record does
		res := st.res.Reset().U32(0)
		mark := res.BeginBlob()
		var callErr error
		if err := bd.Err(); err != nil {
			callErr = err
		} else if h.kind == kindNotify {
			// Fused zero-copy record: the payload lives in the arena grant,
			// not the ring; execute both calls, then deliver completion
			// through the registered callback below.
			callErr = s.execZC(p, st, name, args)
		} else {
			// Name concatenation only happens when tracing is on — the
			// executor loop is the hot path of every streamed mECall.
			end := noopEnd
			if tc := trace.Of(p.Kernel()); tc != nil {
				// Claim the span context the pushing client stashed for
				// this record (the out-of-band trace header), so the exec
				// span — and the mOS dispatch and device hooks under it —
				// link into the caller's request tree. The context is
				// scoped to this record: cleared once the span closes.
				if ctx, ok := tc.TakeFlow(st.id, st.sid); ok {
					p.SetTraceCtx(ctx.Trace, ctx.Span)
				}
				spanEnd := tc.BeginSpan(p, "srpc", st.track, "exec "+name)
				end = func() {
					spanEnd()
					p.SetTraceCtx(0, 0)
				}
			}
			callErr = s.enc.InvokeStreamed(p, name, args, res, &st.scratch)
			end()
		}
		if h.kind == kindSync {
			// Publish the reply frame in place, then advance Sid. A
			// refusal's frame always fits: a record is at least a slot.
			if res.EndBlob(mark); callErr == nil && len(res.Bytes()) > int(h.slots)*SlotSize {
				callErr = mos.ErrResultTooLarge
			}
			if callErr != nil {
				mos.EncodeRefusal(res.Reset(), callErr)
			}
			if err := r.writeAt(p, st.sid, 0, res.Bytes()); err != nil {
				return
			}
		} else if callErr != nil && h.kind != kindNotify {
			// Asynchronous failure: sticky error, surfaced at the
			// next synchronization point (CUDA-style).
			s.sticky(p, st, st.sid, name, callErr)
		}
		st.recycle()
		recSlot := st.sid
		st.sid += uint64(h.slots)
		if err := r.writeU64(p, offSid, st.sid); err != nil {
			return
		}
		if h.kind == kindNotify {
			// Completion callback, after the Sid advance so the ring state
			// observed from the callback is consistent. A fused record with
			// no registered callback surfaces failures sticky, like async.
			if fn, ok := s.notifies.take(st.id, recSlot); ok {
				fn(p, callErr)
			} else if callErr != nil {
				s.sticky(p, st, recSlot, name, callErr)
			}
		}
	}
}

// sticky publishes err as the stream's sticky failure, that of mECall name
// in the record at slot sid, unless one is published and not yet consumed:
// the first asynchronous failure is the one the owner's next synchronization
// point reports.
func (s *Server) sticky(p *sim.Proc, st *serverStream, sid uint64, name string, err error) {
	if code, rerr := st.ring.readU32(p, offSticky); rerr == nil && code == 0 {
		s.publish(p, st, sid, name, err)
	}
}

// publish writes err into the stream's sticky slot, over whatever it holds.
func (s *Server) publish(p *sim.Proc, st *serverStream, sid uint64, name string, err error) {
	r := st.ring
	_ = r.view.Write(p, r.base+offErrName, st.res.Reset().Str(name[:min(len(name), maxErrName)]).Bytes())
	_ = r.view.Write(p, r.base+offErrSid, mos.EncodeRefusal(st.res.Reset().U64(sid), err).Bytes())
}

// corrupt is the executor's abort path for a failed ring-consistency check:
// record the event, publish a sticky corrupt code, then poison Sid to the
// maximum so every owner-side waiter — sync waits and flow control alike —
// wakes through the Sid doorbell, observes consumer > producer, and fails
// with the typed mos.ErrRingCorrupt instead of hanging on a stream nobody will
// ever advance again.
func (s *Server) corrupt(p *sim.Proc, st *serverStream, err error) {
	mRingCorrupt.Inc()
	s.publish(p, st, st.sid, "", err) // terminal: it overrides any earlier failure
	_ = st.ring.writeU64(p, offSid, ^uint64(0))
}
