package mos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cronus/internal/wire"
)

// TestRefusalTable holds the code table closed and one to one: every code
// from 2 to lastCode stands for its own sentinel, which a refusal wrapping it
// carries across EncodeRefusal and DecodeReply to errors.Is on the far side;
// an error no sentinel names is code 1 and keeps only its text, and so does a
// code past the table.
func TestRefusalTable(t *testing.T) {
	seen := make(map[error]uint32)
	for c := uint32(2); c <= lastCode; c++ {
		s := sentinel(c)
		if s == nil {
			t.Fatalf("code %d stands for no sentinel", c)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("codes %d and %d stand for the same sentinel %v", prev, c, s)
		}
		seen[s] = c
		frame := EncodeRefusal(new(wire.Encoder), fmt.Errorf("cuCall: %w", s)).Bytes()
		_, err := DecodeReply("cuCall", 9, frame)
		var ce *CallError
		if !errors.Is(err, s) || !errors.As(err, &ce) || ce.Code != c || ce.Name != "cuCall" || ce.Sid != 9 {
			t.Errorf("code %d: decoded %v (%+v), want a CallError carrying %v", c, err, ce, s)
		}
	}
	if sentinel(0) != nil || sentinel(1) != nil || sentinel(lastCode+1) != nil {
		t.Error("codes 0, 1 and lastCode+1 must stand for no sentinel")
	}
	for _, c := range []uint32{1, lastCode + 1, 1 << 31} {
		frame := new(wire.Encoder).U32(c).Str("peer text").Bytes()
		_, err := DecodeReply("cuCall", 0, frame)
		var ce *CallError
		if !errors.As(err, &ce) || ce.Msg != "peer text" || ce.Unwrap() != nil {
			t.Errorf("code %d: decoded %v, want a CallError keeping the text and unwrapping to nothing", c, err)
		}
	}
	if code := binary.LittleEndian.Uint32(EncodeRefusal(new(wire.Encoder), errors.New("plain")).Bytes()); code != 1 {
		t.Errorf("an error without a sentinel is code %d, want 1", code)
	}
	long := EncodeRefusal(new(wire.Encoder), errors.New(strings.Repeat("x", 2*MaxRefusal))).Bytes()
	if len(long) != 8+MaxRefusal {
		t.Errorf("a %d-byte text makes a %d-byte frame, want %d", 2*MaxRefusal, len(long), 8+MaxRefusal)
	}
}

// TestDecodeReplyAllocations: a success decodes in place; a refusal costs its
// text and its CallError, no more than the fmt.Errorf it replaces.
func TestDecodeReplyAllocations(t *testing.T) {
	ok := new(wire.Encoder).U32(0).Blob([]byte("result")).Bytes()
	refused := EncodeRefusal(new(wire.Encoder), fmt.Errorf("launch: %w", ErrUndeclaredCall)).Bytes()
	if n := testing.AllocsPerRun(100, func() { _, _ = DecodeReply("cuCall", 1, ok) }); n != 0 {
		t.Errorf("a success allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = DecodeReply("cuCall", 1, refused) }); n > 2 {
		t.Errorf("a refusal allocates %v times, want at most 2", n)
	}
}

// frame lays down a reply frame's head: code and length words.
func frame(code, n uint32, body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, code), n), body...)
}

// FuzzRemoteError feeds the one reply-frame decoder what a peer can write: an
// arbitrary code, length word and text, as a synchronous reply (the record
// holds exactly the text given) or as the sticky slot (MaxRefusal bytes of
// text room). The decoder is handed the frame with its capacity clamped, so a
// read past the record or the slot panics; the outcome must be a success
// whose bytes are the declared ones, a *CallError keeping them, or
// ErrRingCorrupt for a length that does not fit.
func FuzzRemoteError(f *testing.F) {
	f.Add(uint32(0), uint32(8), []byte{0, 0, 1, 0, 0, 0, 0, 0}, false)                             // a cuMemAlloc result
	f.Add(uint32(1), uint32(44), []byte("gpu: out of device memory (1048576 used of 1)"), false)   // a refusal before codes
	f.Add(uint32(1), uint32(3), []byte("srpc: result exceeds record capacity"), false)             // short length word
	f.Add(uint32(1), uint32(51), []byte(`gpu: kernel "reduce_sum" not loaded in context 1`), true) // a sticky failure
	f.Add(uint32(2), uint32(39), []byte("producer index 99 outside window [0, 32]"), true)         // the sticky corrupt code
	f.Add(uint32(12), uint32(30), []byte(`gpu: kernel not loaded: "k" in context 1`), true)        // a typed sticky failure
	f.Add(uint32(0xdeadbeef), uint32(5), []byte("hello"), false)                                   // a code this side does not list
	f.Add(uint32(0), uint32(0xffffffff), []byte("x"), false)                                       // a length past the record
	f.Add(uint32(1), uint32(MaxRefusal+1), bytes.Repeat([]byte("y"), MaxRefusal+1), false)         // a text past MaxRefusal
	f.Fuzz(func(t *testing.T, code, n uint32, text []byte, sticky bool) {
		if sticky {
			text = append(text, make([]byte, MaxRefusal)...)[:MaxRefusal]
		}
		b := frame(code, n, text)
		b = b[:len(b):len(b)]
		res, err := DecodeReply("cuCall", 7, b)
		var ce *CallError
		fits := uint64(n) <= uint64(len(text)) && (code == 0 || n <= MaxRefusal)
		switch {
		case err == nil:
			if code != 0 || !fits || !bytes.Equal(res, text[:n]) || cap(res) != len(res) {
				t.Fatalf("code %d, length %d of %d: success %q", code, n, len(text), res)
			}
		case errors.As(err, &ce):
			if code == 0 || !fits || res != nil || ce.Code != code || ce.Msg != string(text[:n]) || ce.Name != "cuCall" || ce.Sid != 7 {
				t.Fatalf("code %d, length %d of %d: %+v", code, n, len(text), ce)
			}
			if (ce.Unwrap() == nil) != (code == 1 || code > lastCode) {
				t.Fatalf("code %d unwraps to %v", code, ce.Unwrap())
			}
		case errors.Is(err, ErrRingCorrupt):
			if fits {
				t.Fatalf("code %d, length %d of %d refused: %v", code, n, len(text), err)
			}
		default:
			t.Fatalf("untyped decode error: %v", err)
		}
		if _, err := DecodeReply("cuCall", 7, b[:len(text)%8:len(text)%8]); !errors.Is(err, ErrRingCorrupt) {
			t.Fatalf("a %d-byte frame: %v", len(text)%8, err)
		}
	})
}
