package wire

import "encoding/binary"

// recycleHook, when non-nil, is handed every data-path buffer that is reused,
// at the moment its previous contents stop being valid: an sRPC executor's
// staging buffers and reply encoder once a record is consumed, a stream's
// reply buffer when its next call starts and its record scratch once the
// record is in the ring, a driver's decoded launch arguments once the launch
// is done.
var recycleHook func(buf []byte)

// SetRecycleHook installs (or, with nil, removes) the recycled-buffer
// observer. It exists for lifetime-contract tests: a hook that overwrites buf
// makes any code that kept bytes past their owner's next use read garbage
// instead of bytes that merely happen to still be there. It is process-global
// and must be removed before unrelated runs.
func SetRecycleHook(fn func(buf []byte)) { recycleHook = fn }

// Recycle hands buf, whole, to the recycle hook; without one it does nothing.
func Recycle(buf []byte) {
	if recycleHook != nil {
		recycleHook(buf[:cap(buf)])
	}
}

// RecycleWords is Recycle for decoded words: each is overwritten with the
// pattern the hook writes over eight bytes.
func RecycleWords(w []uint64) {
	if recycleHook == nil {
		return
	}
	var b [8]byte
	recycleHook(b[:])
	v := binary.LittleEndian.Uint64(b[:])
	for i := range w {
		w[i] = v
	}
}
