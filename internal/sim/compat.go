package sim

// This file is the kernel's only compatibility surface: the entry points of
// the retired sharded mode, kept because bench/layers.go, their sole caller,
// still times sim.sharded_event_host_ns and sim.parallel_speedup through
// them. The kernel has one event domain, so they reduce to Spawn and no-ops,
// and NewPort's shard argument must be 0. The file and that argument go when
// the benchmark drops the two metrics (ROADMAP item 2).

// EnableSharding only validates lookahead: there is one event domain
// whatever n is.
func (k *Kernel) EnableSharding(n int, lookahead Duration) {
	if lookahead <= 0 {
		panic("sim: EnableSharding lookahead must be positive")
	}
}

// SpawnOn is Spawn; shard and lid named a placement and a tie-break that are
// gone.
func (k *Kernel) SpawnOn(shard int, lid uint64, name string, fn func(p *Proc)) *Proc {
	return k.Spawn(name, fn)
}

// Parallelize does nothing: there is no parallel phase.
func (k *Kernel) Parallelize() {}

// Sequentialize does nothing: the kernel is always sequential.
func (p *Proc) Sequentialize() {}
