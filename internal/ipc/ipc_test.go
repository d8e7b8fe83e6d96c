package ipc_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"cronus/internal/attest"
	"cronus/internal/core"
	"cronus/internal/enclave"
	"cronus/internal/ipc"
	"cronus/internal/mos"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

func init() {
	enclave.RegisterCPULibrary(&enclave.CPULibrary{
		Name:  "ipc-test-lib",
		Funcs: map[string]enclave.CPUFunc{"noop": func(*sim.Proc, []byte) ([]byte, error) { return nil, nil }},
	})
}

// ownerEnclave creates a CPU enclave to own shared regions.
func ownerEnclave(t *testing.T, pl *core.Platform, p *sim.Proc) *mos.Enclave {
	t.Helper()
	files := map[string][]byte{
		"e.edl": enclave.BuildEDL(enclave.MECallSpec{Name: "noop", Async: false}),
		"e.so":  enclave.BuildCPUImage("ipc-test-lib"),
	}
	man := enclave.NewManifest("cpu", "e.edl", "e.so", files, enclave.Resources{Memory: "4M"})
	dh, err := attest.NewDHKey([]byte("ipc-owner"))
	if err != nil {
		t.Fatal(err)
	}
	_, e, err := pl.CPUOS.EM.Create(p, "ipc-owner", man, files, dh.Pub)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPipeTransfersDataAcrossPartitions(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		e := ownerEnclave(t, pl, p)
		region, err := ipc.NewRegion(p, e, pl.GPUs[0].Part, 2)
		if err != nil {
			return err
		}
		defer region.Close()
		// Producer in the CPU partition, consumer in the GPU partition.
		wPipe, err := ipc.NewPipe(region.Owner(), 0, 1024)
		if err != nil {
			return err
		}
		rPipe, err := ipc.NewPipe(region.Peer(), 0, 1024)
		if err != nil {
			return err
		}
		msg := make([]byte, 5000) // forces multiple ring wraps
		for i := range msg {
			msg[i] = byte(i * 13)
		}
		k := pl.K
		var got []byte
		wg := sim.NewWaitGroup(k)
		wg.Add(2)
		k.Spawn("producer", func(wp *sim.Proc) {
			defer wg.Done()
			if err := wPipe.Write(wp, msg); err != nil {
				t.Errorf("write: %v", err)
			}
			wPipe.CloseWrite(wp)
		})
		k.Spawn("consumer", func(rp *sim.Proc) {
			defer wg.Done()
			buf := make([]byte, len(msg))
			n, err := rPipe.Read(rp, buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = buf[:n]
		})
		wg.Wait(p)
		if !bytes.Equal(got, msg) {
			t.Errorf("pipe corrupted data: got %d bytes", len(got))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPipeEOFAfterCloseWrite(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		e := ownerEnclave(t, pl, p)
		region, err := ipc.NewRegion(p, e, pl.GPUs[0].Part, 1)
		if err != nil {
			return err
		}
		w, _ := ipc.NewPipe(region.Owner(), 0, 256)
		r, _ := ipc.NewPipe(region.Peer(), 0, 256)
		if err := w.Write(p, []byte("tail")); err != nil {
			return err
		}
		w.CloseWrite(p)
		buf := make([]byte, 16)
		n, err := r.Read(p, buf)
		if err != nil {
			return err
		}
		if n != 4 || string(buf[:4]) != "tail" {
			t.Errorf("read %d bytes %q", n, buf[:n])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPipeRejectsOversizedRing(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		e := ownerEnclave(t, pl, p)
		region, err := ipc.NewRegion(p, e, pl.GPUs[0].Part, 1)
		if err != nil {
			return err
		}
		if _, err := ipc.NewPipe(region.Owner(), 0, 8192); err == nil {
			t.Error("pipe larger than the region accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		e := ownerEnclave(t, pl, p)
		region, err := ipc.NewRegion(p, e, pl.GPUs[0].Part, 1)
		if err != nil {
			return err
		}
		k := pl.K
		counter := 0
		wg := sim.NewWaitGroup(k)
		worker := func(name string, ep *ipc.Endpoint, id uint32) {
			wg.Add(1)
			k.Spawn(name, func(wp *sim.Proc) {
				defer wg.Done()
				l := ipc.NewSpinLock(ep, 64, id)
				for i := 0; i < 50; i++ {
					if err := l.Lock(wp); err != nil {
						t.Errorf("%s lock: %v", name, err)
						return
					}
					// Non-atomic read-modify-write with a yield in the
					// middle: only mutual exclusion protects it.
					v := counter
					wp.Sleep(100)
					counter = v + 1
					if err := l.Unlock(wp); err != nil {
						t.Errorf("%s unlock: %v", name, err)
						return
					}
					wp.Sleep(37)
				}
			})
		}
		worker("cpu-side", region.Owner(), 1)
		worker("gpu-side", region.Peer(), 2)
		wg.Wait(p)
		if counter != 100 {
			t.Errorf("counter = %d, want 100 (lost updates)", counter)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpinLockUnlockValidation(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		e := ownerEnclave(t, pl, p)
		region, err := ipc.NewRegion(p, e, pl.GPUs[0].Part, 1)
		if err != nil {
			return err
		}
		a := ipc.NewSpinLock(region.Owner(), 0, 1)
		b := ipc.NewSpinLock(region.Peer(), 0, 2)
		if err := a.Lock(p); err != nil {
			return err
		}
		if err := b.Unlock(p); err == nil {
			t.Error("unlocked a lock held by the other side")
		}
		if ok, _ := b.TryLock(p); ok {
			t.Error("TryLock succeeded on a held lock")
		}
		if err := a.Unlock(p); err != nil {
			return err
		}
		if ok, _ := b.TryLock(p); !ok {
			t.Error("TryLock failed on a free lock")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The A2 attack from §IV-D: a lock is held by a partition that dies; the
// waiter must trap and get an error, not spin forever.
func TestA2DeadlockAvoidedWhenHolderPartitionDies(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		e := ownerEnclave(t, pl, p)
		region, err := ipc.NewRegion(p, e, pl.GPUs[0].Part, 1)
		if err != nil {
			return err
		}
		k := pl.K
		// The GPU side takes the lock, then its partition crashes.
		holder := ipc.NewSpinLock(region.Peer(), 0, 2)
		if err := holder.Lock(p); err != nil {
			return err
		}
		var waitErr error
		done := sim.NewSignal(k)
		k.Spawn("waiter", func(wp *sim.Proc) {
			waiter := ipc.NewSpinLock(region.Owner(), 0, 1)
			waitErr = waiter.Lock(wp)
			done.Fire()
		})
		k.Spawn("crash", func(cp *sim.Proc) {
			cp.Sleep(10 * sim.Microsecond)
			pl.SPM.Fail(pl.GPUs[0].Part, spm.FailPanic)
		})
		done.Wait(p)
		if !errors.Is(waitErr, ipc.ErrPeerFailed) {
			t.Errorf("waiter got %v, want ErrPeerFailed (A2 defence)", waitErr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Pipe reader blocked on a dead producer's partition also traps (A2 for
// blocking reads).
func TestPipeReaderUnblocksOnPeerFailure(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		e := ownerEnclave(t, pl, p)
		region, err := ipc.NewRegion(p, e, pl.GPUs[0].Part, 1)
		if err != nil {
			return err
		}
		r, _ := ipc.NewPipe(region.Owner(), 0, 256)
		k := pl.K
		var readErr error
		done := sim.NewSignal(k)
		k.Spawn("reader", func(rp *sim.Proc) {
			_, readErr = r.Read(rp, make([]byte, 16))
			done.Fire()
		})
		k.Spawn("crash", func(cp *sim.Proc) {
			cp.Sleep(5 * sim.Microsecond)
			pl.SPM.Fail(pl.GPUs[0].Part, spm.FailPanic)
		})
		done.Wait(p)
		if !errors.Is(readErr, ipc.ErrPeerFailed) {
			t.Errorf("reader got %v, want ErrPeerFailed", readErr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary write/read chunkings through the pipe preserve the
// byte stream exactly (ring wrap-around included).
func TestPipeChunkingQuickProperty(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		e := ownerEnclave(t, pl, p)
		region, err := ipc.NewRegion(p, e, pl.GPUs[0].Part, 1)
		if err != nil {
			return err
		}
		defer region.Close()
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 12; trial++ {
			off := uint64(trial * 320)
			ringBytes := 96 + rng.Intn(64)
			w, err := ipc.NewPipe(region.Owner(), off, ringBytes)
			if err != nil {
				return err
			}
			r, err := ipc.NewPipe(region.Peer(), off, ringBytes)
			if err != nil {
				return err
			}
			msg := make([]byte, 200+rng.Intn(800))
			rng.Read(msg)
			k := pl.K
			var got []byte
			wg := sim.NewWaitGroup(k)
			wg.Add(2)
			k.Spawn("w", func(wp *sim.Proc) {
				defer wg.Done()
				sent := 0
				for sent < len(msg) {
					n := 1 + rng.Intn(100)
					if n > len(msg)-sent {
						n = len(msg) - sent
					}
					if err := w.Write(wp, msg[sent:sent+n]); err != nil {
						t.Errorf("trial %d write: %v", trial, err)
						return
					}
					sent += n
				}
				w.CloseWrite(wp)
			})
			k.Spawn("r", func(rp *sim.Proc) {
				defer wg.Done()
				buf := make([]byte, len(msg))
				n, err := r.Read(rp, buf)
				if err != nil {
					t.Errorf("trial %d read: %v", trial, err)
					return
				}
				got = buf[:n]
			})
			wg.Wait(p)
			if !bytes.Equal(got, msg) {
				t.Fatalf("trial %d: stream corrupted (%d vs %d bytes)", trial, len(got), len(msg))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
