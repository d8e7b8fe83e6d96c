package mos

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cronus/internal/gpu"
	"cronus/internal/hw"
	"cronus/internal/npu"
	"cronus/internal/wire"
)

// The sentinels of the sRPC ring and of the admission check (Enclave.admit).
// ErrRingCorrupt is a ring-header word or reply frame that failed validation:
// the side that finds it stops parsing, poisons the stream so blocked peers
// wake with it too, and tears down; the owner recovers as from
// srpc.ErrPeerFailed. ErrResultTooLarge is a synchronous result that outgrew
// the reply room its record reserved.
var (
	ErrRingCorrupt    = errors.New("srpc: ring corruption detected; stream torn down")
	ErrResultTooLarge = errors.New("srpc: result exceeds record capacity")
	ErrEnclaveDead    = errors.New("mos: enclave is dead")
	ErrUndeclaredCall = errors.New("mos: mECall not declared in the enclave's EDL")
)

// MaxRefusal bounds the text of a refusal frame: EncodeRefusal cuts a longer
// one, and DecodeReply refuses a frame that declares more.
const MaxRefusal = 890

// sentinel is the one table of refusal codes, a reply frame's first word:
// 0 is a success, 1 a refusal no listed sentinel matches, and every other
// code stands for the sentinel returned here. A code is wire format: it keeps
// its number, and a new sentinel takes lastCode+1. A code this side does not
// list stands for nothing.
func sentinel(code uint32) error {
	switch code {
	case 2:
		return ErrRingCorrupt
	case 3:
		return ErrResultTooLarge
	case 4:
		return ErrEnclaveDead
	case 5:
		return ErrUndeclaredCall
	case 6:
		return wire.ErrTruncated
	case 7:
		return hw.ErrReleased
	case 8:
		return gpu.ErrStaleContext
	case 9:
		return gpu.ErrInvalidPointer
	case 10:
		return gpu.ErrOutOfMemory
	case 11:
		return gpu.ErrMisaligned
	case 12:
		return gpu.ErrKernelNotLoaded
	case 13:
		return npu.ErrStaleContext
	case 14:
		return npu.ErrInvalidPointer
	case 15:
		return npu.ErrOutOfMemory
	case 16:
		return npu.ErrScratchpadOverflow
	}
	return nil
}

const lastCode = 16

// CallError is an mECall the peer ran and refused, as its reply frame
// carried it across a ring or the sealed channel: the call, the ring slot of
// its record (0 on the sealed path), the refusal code and the peer's text. It
// unwraps to the code's sentinel, so errors.Is reaches a device's typed fault
// from the caller's side; a code the table does not list unwraps to nothing.
type CallError struct {
	Name string
	Sid  uint64
	Code uint32
	Msg  string
}

// Error keeps the wording of a synchronous refusal on every path.
func (e *CallError) Error() string { return fmt.Sprintf("srpc: mECall %q failed: %s", e.Name, e.Msg) }

// Unwrap returns the sentinel the refusal's code stands for, if any.
func (e *CallError) Unwrap() error { return sentinel(e.Code) }

// EncodeRefusal appends err's reply frame to e: the code of the first
// sentinel of the table that err wraps (1 if none), then at most MaxRefusal
// bytes of its text, length-prefixed.
func EncodeRefusal(e *wire.Encoder, err error) *wire.Encoder {
	code := uint32(1)
	for c := uint32(2); c <= lastCode && code == 1; c++ {
		if errors.Is(err, sentinel(c)) {
			code = c
		}
	}
	msg := err.Error()
	return e.U32(code).Str(msg[:min(len(msg), MaxRefusal)])
}

// DecodeReply decodes the reply frame b holds for mECall name, whose record
// started at ring slot sid: a code word, a length word and the bytes the
// length declares. A success returns those bytes, aliasing b; a refusal is a
// *CallError. A frame that declares more than b holds, or a refusal text past
// MaxRefusal, is ErrRingCorrupt: nothing is read past either bound.
func DecodeReply(name string, sid uint64, b []byte) ([]byte, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("%w: reply frame of %d bytes", ErrRingCorrupt, len(b))
	}
	code, n := binary.LittleEndian.Uint32(b), uint64(binary.LittleEndian.Uint32(b[4:]))
	if n > uint64(len(b)-8) || code != 0 && n > MaxRefusal {
		return nil, fmt.Errorf("%w: reply of %d bytes exceeds its %d-byte frame", ErrRingCorrupt, n, len(b)-8)
	}
	body := b[8 : 8+n : 8+n]
	if code != 0 {
		return nil, &CallError{Name: name, Sid: sid, Code: code, Msg: string(body)}
	}
	return body, nil
}
