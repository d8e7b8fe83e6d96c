package rodinia_test

import (
	"hash/fnv"
	"testing"

	"cronus/internal/accel"
	"cronus/internal/baseline"
	"cronus/internal/experiments"
	"cronus/internal/sim"
	"cronus/internal/workload/rodinia"
)

// uploadSum hashes every HtoD payload a benchmark pass sends, in order.
type uploadSum struct {
	accel.CUDA
	sum uint64
}

func (u *uploadSum) HtoD(p *sim.Proc, dst uint64, data []byte) error {
	h := fnv.New64a()
	h.Write(data)
	u.sum = u.sum*31 + h.Sum64()
	return u.CUDA.HtoD(p, dst, data)
}

// timeAndUploads runs one pass of b on system, returning its virtual time
// and the hash of what it uploaded.
func timeAndUploads(t *testing.T, b rodinia.Benchmark, system baseline.System) (sim.Duration, uint64) {
	t.Helper()
	u := &uploadSum{}
	d, err := experiments.RunOnSystem(system, b.Cubin(), nil, nil, func(p *sim.Proc, ops accel.CUDA) error {
		u.CUDA = ops
		return b.Run(p, u)
	})
	if err != nil {
		t.Fatalf("%s on %s: %v", b.Name, system, err)
	}
	return d, u.sum
}

// TestVirtualTimeIgnoresValues: every Fig 7 benchmark whose inputs the
// filler draws takes bit-equal virtual time on each of the four systems
// under another filler seed, which does change what it uploads. BFS and
// streamcluster are the exceptions — their drawn values decide how many
// rounds run and what those upload — so their draws stay off the filler,
// and another filler seed changes neither their uploads nor their times.
func TestVirtualTimeIgnoresValues(t *testing.T) {
	for _, b := range rodinia.AllExtended() {
		exception := b.Name == "bfs" || b.Name == "streamcluster"
		other := b.WithSeed(0xdecaf)
		for _, system := range experiments.GPUSystems {
			d0, sum0 := timeAndUploads(t, b, system)
			d1, sum1 := timeAndUploads(t, other, system)
			if d0 != d1 {
				t.Errorf("%s on %s: %v virtual under another filler seed, %v under its own", b.Name, system, d1, d0)
			}
			if changed := sum0 != sum1; changed == exception {
				t.Errorf("%s on %s: another filler seed changed its uploads: %v", b.Name, system, changed)
			}
		}
	}
}
