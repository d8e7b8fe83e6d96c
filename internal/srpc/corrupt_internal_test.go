package srpc

import (
	"errors"
	"math"
	"testing"

	"cronus/internal/mos"
	"cronus/internal/wire"
)

// TestRecordSlotsConsistency pins the executor's header validation to the
// owner's framing: recordSlots must reproduce exactly the slot count push
// computes for any (payloadLen, respCap), so a header that round-trips
// uncorrupted always validates and any flipped slots word is rejected.
func TestRecordSlotsConsistency(t *testing.T) {
	cases := []struct{ payload, respCap int }{
		{0, 0}, {1, 0}, {100, 0}, {100, 2048}, {2032, 0}, {2033, 0},
		{4096, 0}, {4096, 65536}, {10, 100000}, {SlotSize * 3, SlotSize},
	}
	for _, c := range cases {
		// The framing rule spelled out on its own: the body is the larger of
		// the payload and the reserved reply, behind the record header.
		body := recHdrSize + c.payload
		if c.respCap+8 > c.payload {
			body = recHdrSize + c.respCap + 8
		}
		want := slotsFor(uint64(body))
		if got := recordSlots(uint32(c.payload), uint32(c.respCap)); got != want {
			t.Errorf("recordSlots(%d, %d) = %d, the framing rule gives %d", c.payload, c.respCap, got, want)
		}
		// Any single-bit corruption of the slots word breaks the equality
		// the executor checks.
		for bit := uint32(1); bit < 1<<20; bit <<= 1 {
			if uint64(uint32(want)^bit) == recordSlots(uint32(c.payload), uint32(c.respCap)) {
				t.Errorf("flipped slots word %d still validates for (%d, %d)", uint32(want)^bit, c.payload, c.respCap)
			}
		}
	}
	// Header words near 2^32 keep their full footprint at any int width:
	// (16 + 2^32-1 + 2047) / 2048 slots, never a sum wrapped to one slot.
	for _, c := range [][2]uint32{{math.MaxUint32, 0}, {0, math.MaxUint32 - 8}, {math.MaxUint32, math.MaxUint32}} {
		want := (uint64(recHdrSize) + max(uint64(c[0]), uint64(c[1])+8) + SlotSize - 1) / SlotSize
		if got := recordSlots(c[0], c[1]); got != want || got < 1<<21 {
			t.Errorf("recordSlots(%d, %d) = %d, want %d", c[0], c[1], got, want)
		}
	}
}

// recHdrBytes frames a header the way push does.
func recHdrBytes(payloadLen, kind, slots, respCap uint32) []byte {
	return new(wire.Encoder).U32(payloadLen).U32(kind).U32(slots).U32(respCap).Bytes()
}

// FuzzRecordHeader feeds the executor's header validation arbitrary ring
// bytes. Whatever the 16 bytes say, the outcome is one of two: the typed
// ErrRingCorrupt the executor aborts the stream with, or a header that is
// exactly what push would have framed — known kind, a slot count inside the
// ring and equal to recordSlots — in which case the body the executor goes on
// to stage lies inside both the record and the staging buffer it sizes from
// the slot count.
func FuzzRecordHeader(f *testing.F) {
	const ring = (DefaultPages*4096 - headerBytes) / SlotSize
	f.Add(recHdrBytes(40, kindAsync, 1, 0), uint8(ring))              // small streamed call
	f.Add(recHdrBytes(24, kindSync, 3, 4096), uint8(ring))            // sync call, default result reservation
	f.Add(recHdrBytes(16404, kindAsync, 9, 0), uint8(ring))           // 16 KiB HtoD chunk
	f.Add(recHdrBytes(70, kindNotify, 1, 0), uint8(ring))             // fused record
	f.Add(recHdrBytes(65536-16, kindAsync, ring, 0), uint8(ring))     // fills the ring exactly
	f.Add(recHdrBytes(65536-15, kindAsync, ring+1, 0), uint8(ring))   // one byte more than the ring holds
	f.Add(recHdrBytes(40, kindAsync, 1^4, 0), uint8(ring))            // flipped slots word
	f.Add(recHdrBytes(40, 3, 1, 0), uint8(ring))                      // unknown kind
	f.Add(recHdrBytes(0xffffffff, kindSync, 1, 0xffffffff), uint8(2)) // lengths that overflow 32-bit sums
	f.Add(recHdrBytes(0, kindAsync, 0, 0), uint8(ring))               // zero slots
	f.Fuzz(func(t *testing.T, raw []byte, ringSlots uint8) {
		var hdr [recHdrSize]byte
		copy(hdr[:], raw)
		h, err := parseRecHeader(&hdr, uint64(ringSlots))
		if err != nil {
			if !errors.Is(err, mos.ErrRingCorrupt) {
				t.Fatalf("rejection is not ErrRingCorrupt: %v", err)
			}
			return
		}
		if h.kind > kindNotify {
			t.Fatalf("unknown kind %d validated", h.kind)
		}
		if h.slots == 0 || uint64(h.slots) > uint64(ringSlots) {
			t.Fatalf("%d slots validated on a ring of %d", h.slots, ringSlots)
		}
		if uint64(h.slots) != recordSlots(h.payloadLen, h.respCap) {
			t.Fatalf("slots %d validated, push frames %d", h.slots, recordSlots(h.payloadLen, h.respCap))
		}
		// The executor reads payloadLen bytes from offset recHdrSize of the
		// record into its staging buffer: inside the record, inside the
		// buffer (bodyBuf panics on a slice past its capacity), and the
		// buffer no larger than the ring.
		if room := int(h.slots) * SlotSize; recHdrSize+int(h.payloadLen) > room {
			t.Fatalf("body of %d bytes runs past its %d-byte record", h.payloadLen, room)
		}
		st := &serverStream{}
		if body := st.bodyBuf(h); len(body) != int(h.payloadLen) || cap(st.stage) > int(ringSlots)*SlotSize {
			t.Fatalf("staged %d of %d bytes in a %d-byte buffer on a %d-slot ring", len(body), h.payloadLen, cap(st.stage), ringSlots)
		}
	})
}
