package dnn_test

import (
	"errors"
	"testing"

	"cronus/internal/core"
	"cronus/internal/dnn"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/srpc"
)

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	var fail error
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		tr, err := nativeTrainer(p, dnn.LeNet2(), 8)
		if err != nil {
			fail = err
			return
		}
		for i := 0; i < 2; i++ {
			if _, err := tr.Step(p); err != nil {
				fail = err
				return
			}
		}
		ck, err := tr.Checkpoint(p)
		if err != nil {
			fail = err
			return
		}
		if ck.Step != 2 {
			t.Errorf("checkpoint step = %d", ck.Step)
		}
		// One more step mutates the weights; restore must bring them back.
		if _, err := tr.Step(p); err != nil {
			fail = err
			return
		}
		ck2, _ := tr.Checkpoint(p)
		if ck2.Weights[0][0] == ck.Weights[0][0] && ck2.Weights[2][5] == ck.Weights[2][5] {
			t.Error("weights did not change across a step")
		}
		if err := tr.Restore(p, ck); err != nil {
			fail = err
			return
		}
		ck3, _ := tr.Checkpoint(p)
		for l := range ck.Weights {
			for i := range ck.Weights[l] {
				if ck3.Weights[l][i] != ck.Weights[l][i] {
					t.Fatalf("layer %d weight %d not restored", l, i)
				}
			}
		}
		if tr.Steps != 2 {
			t.Errorf("restored step counter = %d", tr.Steps)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fail != nil {
		t.Fatal(fail)
	}
}

func TestRestoreValidatesShape(t *testing.T) {
	k := sim.NewKernel()
	var fail error
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		tr, err := nativeTrainer(p, dnn.LeNet2(), 8)
		if err != nil {
			fail = err
			return
		}
		if err := tr.Restore(p, &dnn.Checkpoint{Model: "VGG16"}); err == nil {
			t.Error("cross-model restore accepted")
		}
		if err := tr.Restore(p, &dnn.Checkpoint{Model: "LeNet-2", Weights: make([][]float32, 1)}); err == nil {
			t.Error("wrong layer count accepted")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fail != nil {
		t.Fatal(fail)
	}
}

// The full recovery story: train in a CUDA mEnclave, checkpoint, crash the
// partition, resubmit into the recovered incarnation, restore, continue.
func TestCheckpointSurvivesPartitionFailure(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "ck-train")
		if err != nil {
			return err
		}
		conn, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: dnn.Cubin(), RingPages: 65})
		if err != nil {
			return err
		}
		tr, err := dnn.NewTrainer(p, conn, dnn.LeNet2(), 8)
		if err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if _, err := tr.Step(p); err != nil {
				return err
			}
		}
		ck, err := tr.Checkpoint(p)
		if err != nil {
			return err
		}

		// Crash: all device state (weights included) is scrubbed (A3).
		pl.SPM.Fail(pl.GPUs[0].Part, spm.FailPanic)
		if _, err := tr.Step(p); !errors.Is(err, srpc.ErrPeerFailed) {
			t.Errorf("step after crash: err = %v", err)
		}
		pl.SPM.AwaitReady(p, pl.GPUs[0].Part)
		p.Sleep(sim.Millisecond)

		// Resubmit: fresh enclave, fresh trainer, restore the checkpoint.
		conn2, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: dnn.Cubin(), RingPages: 65, Name: "ck-train/cuda2"})
		if err != nil {
			return err
		}
		defer conn2.Close(p)
		tr2, err := dnn.NewTrainer(p, conn2, dnn.LeNet2(), 8)
		if err != nil {
			return err
		}
		if err := tr2.Restore(p, ck); err != nil {
			return err
		}
		got, err := tr2.Checkpoint(p)
		if err != nil {
			return err
		}
		if got.Weights[2][7] != ck.Weights[2][7] {
			t.Error("restored weights differ from the checkpoint")
		}
		if _, err := tr2.Step(p); err != nil {
			return err
		}
		if tr2.Steps != 3 {
			t.Errorf("training resumed at step %d, want 3", tr2.Steps)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
