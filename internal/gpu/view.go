package gpu

import "unsafe"

// This file is the one place in internal/ that imports unsafe
// (TestNoUnlistedPackageState names any second one). Device memory is
// allocated as float32 words and its byte face is derived from that, never
// the other way round: a cast in this direction cannot be misaligned.

// Bytes returns the memory of f as bytes, in host byte order: the bytes
// device memory holds for those floats, without a copy. Host code uploads a
// float tensor as gpu.Bytes(f).
func Bytes(f []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
}
