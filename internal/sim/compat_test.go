package sim

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// These tests hold the compatibility entry points (compat.go) to what their
// one caller, bench/layers.go, needs of them; they go with that file.

// dispatchHash runs a kernel set up by build and returns the hash of its
// dispatched keys.
func dispatchHash(t *testing.T, build func(k *Kernel)) uint64 {
	t.Helper()
	k := NewKernel()
	h := fnv.New64a()
	k.probe = func(at Time, band uint8, seq uint64) { fmt.Fprintf(h, "%d/%d/%d;", at, band, seq) }
	build(k)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	return h.Sum64()
}

// TestCompatEntryPointsAreSpawn runs the benchmark's sharded-engine shape —
// eight partition workers burning local sleeps on four device shards, each
// reporting to the host over a port — through EnableSharding, SpawnOn,
// Parallelize and Sequentialize, and the same program written with Spawn:
// the two dispatch the same keys.
func TestCompatEntryPointsAreSpawn(t *testing.T) {
	const parts, shards, perPart = 8, 4, 200
	hop := 25 * Microsecond
	program := func(compat bool) func(k *Kernel) {
		return func(k *Kernel) {
			if compat {
				k.EnableSharding(shards+1, hop)
			}
			done := NewPort[int](k, 0, "done", hop)
			for i := 0; i < parts; i++ {
				name := fmt.Sprintf("worker-%d", i)
				worker := func(p *Proc) {
					for n := 0; n < perPart; n++ {
						p.Sleep(2 * Microsecond)
					}
					done.Send(p, 1)
				}
				if compat {
					k.SpawnOn(1+i%shards, uint64(100+i), name, worker)
				} else {
					k.Spawn(name, worker)
				}
			}
			host := func(p *Proc) {
				if compat {
					k.Parallelize()
				}
				for n := 0; n < parts; n++ {
					done.Recv(p)
				}
				if compat {
					p.Sequentialize()
				}
			}
			if compat {
				k.SpawnOn(0, 1, "host", host)
			} else {
				k.Spawn("host", host)
			}
		}
	}
	if got, want := dispatchHash(t, program(true)), dispatchHash(t, program(false)); got != want {
		t.Fatalf("through the compatibility entry points: key hash %#x, with Spawn %#x", got, want)
	}
}

// TestParallelDeadline verifies RunUntil still cuts at its deadline after
// Parallelize, and the run can resume.
func TestParallelDeadline(t *testing.T) {
	k := NewKernel()
	k.EnableSharding(2, 2*Microsecond)
	ticks := 0
	k.SpawnOn(1, 2, "ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(10 * Microsecond)
			ticks++
		}
	})
	k.SpawnOn(0, 1, "main", func(p *Proc) {
		k.Parallelize()
		p.Sleep(200 * Microsecond)
	})
	if err := k.RunUntil(Time(35 * Microsecond)); err != nil {
		t.Fatal(err)
	}
	if ticks != 3 {
		t.Fatalf("expected 3 ticks by 35us, got %d", ticks)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("expected 10 ticks after resume, got %d", ticks)
	}
	k.Shutdown()
}

// TestParallelDeadlock verifies the deadlock detector still fires after
// Parallelize when every process left is parked.
func TestParallelDeadlock(t *testing.T) {
	k := NewKernel()
	k.EnableSharding(2, 2*Microsecond)
	pt := NewPort[int](k, 0, "never", 2*Microsecond)
	k.SpawnOn(1, 2, "waiter", func(p *Proc) {
		pt.Recv(p)
	})
	k.SpawnOn(0, 1, "main", func(p *Proc) {
		k.Parallelize()
		p.Sleep(10 * Microsecond)
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "waiter" {
		t.Fatalf("unexpected parked set %v", de.Parked)
	}
	k.Shutdown()
}

// TestParallelizeValidation: the entry points refuse what one event domain
// cannot honour — a lookahead that is not positive, a port on another shard.
func TestParallelizeValidation(t *testing.T) {
	k := NewKernel()
	for name, call := range map[string]func(){
		"EnableSharding lookahead 0": func() { k.EnableSharding(2, 0) },
		"NewPort on shard 1":         func() { NewPort[int](k, 1, "elsewhere", Microsecond) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}
