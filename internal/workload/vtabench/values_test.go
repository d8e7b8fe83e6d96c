package vtabench_test

import (
	"hash/fnv"
	"testing"

	"cronus/internal/accel"
	"cronus/internal/baseline"
	"cronus/internal/experiments"
	"cronus/internal/sim"
	"cronus/internal/workload/vtabench"
)

// uploadSum hashes every HtoD payload a pass sends, in order.
type uploadSum struct {
	accel.NPU
	sum uint64
}

func (u *uploadSum) HtoD(p *sim.Proc, dst uint64, data []byte) error {
	h := fnv.New64a()
	h.Write(data)
	u.sum = u.sum*31 + h.Sum64()
	return u.NPU.HtoD(p, dst, data)
}

// timeAndUploads runs one pass of b on system as a Fig 10a cell does,
// returning its virtual time and the hash of what it uploaded.
func timeAndUploads(t *testing.T, b vtabench.Benchmark, system baseline.System) (sim.Duration, uint64) {
	t.Helper()
	u := &uploadSum{}
	d, err := experiments.RunOnNPU(system, nil, func(p *sim.Proc, ops accel.NPU) error {
		u.NPU = ops
		_, err := b.Run(p, u)
		return err
	})
	if err != nil {
		t.Fatalf("%s on %s: %v", b.Name, system, err)
	}
	return d, u.sum
}

// TestVirtualTimeIgnoresValues: every Fig 10a benchmark takes bit-equal
// virtual time on each NPU system under another filler seed, which does
// change what it uploads.
func TestVirtualTimeIgnoresValues(t *testing.T) {
	for _, b := range vtabench.All() {
		for _, system := range experiments.NPUSystems {
			d0, sum0 := timeAndUploads(t, b, system)
			d1, sum1 := timeAndUploads(t, b.WithSeed(0xdecaf), system)
			if d0 != d1 {
				t.Errorf("%s on %s: %v virtual under another filler seed, %v under its own", b.Name, system, d1, d0)
			}
			if sum0 == sum1 {
				t.Errorf("%s on %s: another filler seed uploaded the same bytes", b.Name, system)
			}
		}
	}
}
