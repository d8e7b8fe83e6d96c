package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"cronus/internal/accel"
	"cronus/internal/gpu"
	"cronus/internal/sim"
)

// uploader is what accel.CUDA and accel.NPU share of the copy surface.
type uploader interface {
	MemAlloc(p *sim.Proc, n uint64) (uint64, error)
	HtoD(p *sim.Proc, dst uint64, data []byte) error
	DtoH(p *sim.Proc, src uint64, n int) ([]byte, error)
	Sync(p *sim.Proc) error
}

// uploadThenOverwrite uploads a pattern, overwrites the source as soon as
// HtoD returns, syncs, and fails if the device does not hold the pattern.
// The 600 KiB payload is several CRONUS ring chunks (64 KiB on a CUDA
// stream's 65 pages, 256 KiB on an NPU stream's 257), so the first chunks
// are still queued when HtoD returns.
func uploadThenOverwrite(p *sim.Proc, ops uploader) error {
	want := make([]byte, 600<<10)
	for i := range want {
		want[i] = byte(7*i + 1)
	}
	src := bytes.Clone(want)
	dst, err := ops.MemAlloc(p, uint64(len(src)))
	if err != nil {
		return err
	}
	if err := ops.HtoD(p, dst, src); err != nil {
		return err
	}
	for i := range src {
		src[i] = 0xEE
	}
	if err := ops.Sync(p); err != nil {
		return err
	}
	got, err := ops.DtoH(p, dst, len(want))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("the device does not hold the upload (%d of its bytes are the overwrite's 0xEE): HtoD used its source after returning",
			bytes.Count(got, []byte{0xEE}))
	}
	return nil
}

// TestHtoDSourceReusableAfterReturn holds all seven accel implementations —
// Native, TrustZone, HIX and CRONUS for CUDA; Native, TrustZone and CRONUS
// for the NPU — to the HtoD contract: the caller may reuse data as soon as
// HtoD returns (a dnn.Trainer draws every mini-batch into the same buffers).
func TestHtoDSourceReusableAfterReturn(t *testing.T) {
	for _, system := range GPUSystems {
		if _, err := RunOnSystem(system, gpu.BuildCubin(), nil, nil, func(p *sim.Proc, ops accel.CUDA) error {
			return uploadThenOverwrite(p, ops)
		}); err != nil {
			t.Errorf("CUDA on %s: %v", system, err)
		}
	}
	for _, system := range NPUSystems {
		if _, err := RunOnNPU(system, nil, func(p *sim.Proc, ops accel.NPU) error {
			return uploadThenOverwrite(p, ops)
		}); err != nil {
			t.Errorf("NPU on %s: %v", system, err)
		}
	}
}
