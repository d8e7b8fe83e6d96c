package chaos

import (
	"math/rand"

	"cronus/internal/cluster"
	"cronus/internal/elastic"
	"cronus/internal/serve"
	"cronus/internal/sim"
)

// Compile derives a fault schedule from the seed: kinds, targets and
// triggers all come from one seeded stream, so the same (seed, Options)
// always compiles the same schedule. Options.Nodes selects the draw table —
// the single-platform kinds or the cluster kinds — and the two are domain-
// separated, so one seed yields unrelated plans on the two topologies.
// Options that name a kind of the other topology are rejected.
func Compile(seed int64, opts Options) (*Schedule, error) {
	opts.defaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.cluster() {
		return compileCluster(seed, opts), nil
	}
	return compilePlatform(seed, opts), nil
}

// midWindow draws a fault instant in the middle three fifths of the window,
// so the plane has traffic in flight when the fault lands and time to recover
// before the drain.
func midWindow(rng *rand.Rand, o Options) sim.Duration {
	return o.Window/5 + sim.Duration(rng.Int63n(int64(3*o.Window/5)))
}

// compilePlatform draws the single-platform schedule. Ring corruptions target
// the tenant's active replica stream under device-affinity placement (stream
// ids are minted 1,2,3,… in replica creation order, tenant-major) at a push
// ordinal past the two setup calls every replica issues. Hang ordinals are
// deduplicated per device, since a launch can only hang once.
func compilePlatform(seed int64, opts Options) *Schedule {
	rng := rand.New(rand.NewSource(seed ^ 0x63686173)) // domain-separate from serve seeds
	s := &Schedule{Seed: seed}
	hangArmed := map[[2]uint64]bool{} // (device, launch) pairs already taken
	crashLoopDrawn := false           // at most one per schedule (see KindCrashLoop below)
	for n := 0; n < opts.Faults; n++ {
		f := &Fault{Kind: opts.Kinds[rng.Intn(len(opts.Kinds))]}
		if f.Kind == KindCrashLoop && (crashLoopDrawn || opts.Partitions < 2) {
			// A second crash-loop could quarantine the whole pool and
			// leave admitted requests unplaceable; a one-partition pool
			// has no survivors to re-place onto. Degrade the draw to a
			// plain crash (targets drawn below keep the stream aligned).
			f.Kind = KindCrash
		}
		switch f.Kind {
		case KindCrash, KindPersistentHang:
			f.Partition = rng.Intn(opts.Partitions)
			f.After = midWindow(rng, opts)
		case KindDeviceHang:
			f.Partition = rng.Intn(opts.Partitions)
			f.Launch = uint64(2 + rng.Intn(40))
			for hangArmed[[2]uint64{uint64(f.Partition), f.Launch}] {
				f.Launch++
			}
			hangArmed[[2]uint64{uint64(f.Partition), f.Launch}] = true
		case KindRingCorrupt:
			f.Tenant = rng.Intn(opts.Tenants)
			// The tenant's device-affinity replica: streams are minted
			// tenant-major at boot, one per (tenant, partition).
			f.Stream = uint64(f.Tenant*opts.Partitions + f.Tenant%opts.Partitions + 1)
			f.AfterCalls = uint64(3 + rng.Intn(38))
			f.Mask = uint32(1) << uint(rng.Intn(20))
		case KindAttestFail:
			f.Partition = rng.Intn(opts.Partitions)
			f.Fails = 1 + rng.Intn(2)
			// Without a restart there is no report to veto: pair the
			// outage with a crash on the same partition.
			s.Faults = append(s.Faults, &Fault{
				Kind: KindCrash, Partition: f.Partition, After: midWindow(rng, opts),
			})
		case KindCrashLoop:
			crashLoopDrawn = true
			f.Partition = rng.Intn(opts.Partitions)
			f.After = midWindow(rng, opts)
			f.Crashes = serve.HealthPolicy().QuarantineAfter
		}
		s.Faults = append(s.Faults, f)
	}
	return s
}

// compileCluster draws the cluster schedule. Partition, slow-link and
// scale-storm windows last between a tenth and three tenths of the load
// window. At most Nodes-1 distinct nodes crash — crashing the last survivor
// (or the same node twice) would leave nothing to fail over to, so such draws
// degrade to a heal-able net-partition on the same node. Migration faults
// draw a source endpoint and a destination: cross-node on the same partition
// index for migrate-interrupt, the next partition on the same node for
// drain-race (cross-node when the node has only one). A second migration
// from an already-drawn source would find it released and be a no-op, so
// duplicate draws degrade to a scale-storm.
func compileCluster(seed int64, opts Options) *Schedule {
	rng := rand.New(rand.NewSource(seed ^ 0x6e6f6465)) // domain-separate from compilePlatform
	s := &Schedule{Seed: seed}
	crashed := map[int]bool{}
	ppn := opts.Partitions / opts.Nodes
	staled := map[[2]int]bool{}
	migrated := map[[2]int]bool{}
	for n := 0; n < opts.Faults; n++ {
		f := &Fault{Kind: opts.Kinds[rng.Intn(len(opts.Kinds))], Node: rng.Intn(opts.Nodes)}
		if f.Kind == KindNodeCrash && (len(crashed) >= opts.Nodes-1 || crashed[f.Node]) {
			f.Kind = KindNetPartition
		}
		if f.Kind == KindMigrateInterrupt || f.Kind == KindDrainRace {
			f.Partition = rng.Intn(ppn)
			if migrated[[2]int{f.Node, f.Partition}] {
				// The source was already drawn: a second migration from it
				// would find the partition released (or just-failed) and skip.
				// Degrade the draw to a scale-storm so the seed still injects.
				f.Kind = KindScaleStorm
				f.Node, f.Partition = 0, 0
			} else {
				migrated[[2]int{f.Node, f.Partition}] = true
				if f.Kind == KindDrainRace && ppn >= 2 {
					f.ToNode, f.ToPart = f.Node, (f.Partition+1)%ppn
				} else {
					f.ToNode, f.ToPart = (f.Node+1)%opts.Nodes, f.Partition
				}
			}
		}
		if f.Kind == KindStaleMeasurement {
			f.Partition = rng.Intn(ppn)
			// A duplicate victim would be a no-op (revocation is permanent),
			// and revoking every partition would leave admitted requests with
			// nowhere typed-healthy to land; degrade such draws to a storm.
			if staled[[2]int{f.Node, f.Partition}] || len(staled) >= opts.Partitions-1 {
				f.Kind = KindAttestStorm
				f.Partition = 0
			} else {
				staled[[2]int{f.Node, f.Partition}] = true
			}
		}
		f.After = midWindow(rng, opts)
		switch f.Kind {
		case KindNodeCrash:
			crashed[f.Node] = true
		case KindAttestStorm:
			f.Node = 0 // a storm hits the gateway-wide ticket cache, not a node
		case KindNetPartition, KindSlowLink, KindScaleStorm:
			f.Until = f.After + opts.Window/10 + sim.Duration(rng.Int63n(int64(opts.Window/5)))
			if f.Kind == KindSlowLink {
				f.Mult = float64(2 + rng.Intn(7))
			}
			if f.Kind == KindScaleStorm {
				f.Node = 0 // a storm hits the plane-wide autoscaler, not a node
			}
		}
		s.Faults = append(s.Faults, f)
	}
	return s
}

// lower arms the schedule's cluster faults on the serving config's own fault
// hooks (single-platform faults are armed on the booted platform by an
// Injector instead).
func (s *Schedule) lower(cfg *serve.Config) {
	for _, f := range s.Faults {
		from := elastic.Endpoint{Node: f.Node, Part: f.Partition}
		to := elastic.Endpoint{Node: f.ToNode, Part: f.ToPart}
		switch f.Kind {
		case KindNodeCrash:
			cfg.NodeFaults = append(cfg.NodeFaults,
				cluster.Fault{Kind: cluster.NodeCrash, Node: f.Node, At: f.After})
		case KindNetPartition:
			cfg.NodeFaults = append(cfg.NodeFaults,
				cluster.Fault{Kind: cluster.NetPartition, Node: f.Node, At: f.After, Until: f.Until})
		case KindSlowLink:
			cfg.NodeFaults = append(cfg.NodeFaults,
				cluster.Fault{Kind: cluster.SlowLink, Node: f.Node, At: f.After, Until: f.Until, Mult: f.Mult})
		case KindAttestStorm:
			cfg.AttestFaults = append(cfg.AttestFaults,
				serve.AttestFault{Kind: serve.AttestStorm, At: f.After})
		case KindStaleMeasurement:
			cfg.AttestFaults = append(cfg.AttestFaults,
				serve.AttestFault{Kind: serve.StaleMeasurement, At: f.After, Node: f.Node, Part: f.Partition})
		case KindMigrateInterrupt:
			cfg.Migrations = append(cfg.Migrations,
				serve.Migration{At: f.After, From: from, To: to, Interrupt: true})
		case KindDrainRace:
			cfg.Migrations = append(cfg.Migrations,
				serve.Migration{At: f.After, From: from, To: to, Race: true})
		case KindScaleStorm:
			cfg.ScaleStorms = append(cfg.ScaleStorms, serve.ScaleStorm{At: f.After, Until: f.Until})
		}
	}
}
