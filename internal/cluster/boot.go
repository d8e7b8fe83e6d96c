package cluster

import (
	"fmt"

	"cronus/internal/core"
	"cronus/internal/sim"
)

// BootNodes builds n independent platforms — each with its own SPM,
// partition pool, mOS instances, attestation service, and dispatcher — on
// the calling proc's kernel. Node i is core.BuildNode(i): its own fuses, so
// its own root of trust, device keys and DH seeds; node 0 has exactly the
// keys of a single platform. Node i's dispatcher mints stream ids from base
// i<<16, so stream ids (and the executor names derived from them) are
// disjoint across nodes. 16 bits of stream space per node bounds a run at
// 65,535 streams per node, far above anything the serving plane opens.
func BootNodes(p *sim.Proc, n int, cfg core.Config) ([]*core.Platform, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", n)
	}
	if n > 16 {
		return nil, fmt.Errorf("cluster: at most 16 nodes (stream-id ranges), got %d", n)
	}
	plats := make([]*core.Platform, 0, n)
	for i := 0; i < n; i++ {
		pl, err := core.BuildNode(p, cfg, i)
		if err != nil {
			return nil, fmt.Errorf("cluster: boot node %d: %w", i, err)
		}
		pl.D.SetStreamBase(uint64(i) << 16)
		plats = append(plats, pl)
	}
	return plats, nil
}
