package experiments

import (
	"errors"
	"testing"

	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/sim"
	"cronus/internal/srpc"
)

// TestSyncForcedCUDAFreesAndCloses: the lock-step wrapper's MemFree is a
// synchronous call — the device memory is back when it returns, and a second
// free of the pointer fails there, not at the next Sync — and its Close
// closes the stream.
func TestSyncForcedCUDAFreesAndCloses(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "lock-step")
		if err != nil {
			return err
		}
		conn, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add")})
		if err != nil {
			return err
		}
		ops := &syncForcedCUDA{inner: conn}
		dev := pl.GPUs[0].Dev
		before := dev.MemUsed()
		ptr, err := ops.MemAlloc(p, 4096)
		if err != nil {
			return err
		}
		if err := ops.MemFree(p, ptr); err != nil {
			t.Errorf("MemFree: %v", err)
		}
		if got := dev.MemUsed(); got != before {
			t.Errorf("device memory in use %d after the free, %d before the alloc", got, before)
		}
		if err := ops.MemFree(p, ptr); err == nil {
			t.Error("a second free of the pointer succeeded")
		}
		if err := ops.Close(p); err != nil {
			t.Errorf("Close: %v", err)
		}
		if _, err := ops.MemAlloc(p, 64); !errors.Is(err, srpc.ErrStreamClosed) {
			t.Errorf("MemAlloc after Close: %v, want ErrStreamClosed", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAblationStreamingShowsTheWin(t *testing.T) {
	rows, err := AblationStreaming()
	if err != nil {
		t.Fatal(err)
	}
	stream, forced := rows[0].Total, rows[1].Total
	if forced <= stream {
		t.Fatalf("forced-sync (%v) not slower than streaming (%v)", forced, stream)
	}
	// gaussian issues ~190 launches; forcing each to wait must cost
	// measurably (the executor round trip per call).
	if float64(forced) < 1.005*float64(stream) {
		t.Errorf("forced-sync only %.4fx streaming — ablation shows nothing", float64(forced)/float64(stream))
	}
	_ = RenderAblationStreaming(rows)
}

func TestAblationRingSizeMonotone(t *testing.T) {
	rows, err := AblationRingSize()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// A tiny ring stalls on flow control; bigger rings cannot be slower.
	for i := 1; i < len(rows); i++ {
		if rows[i].Transfer > rows[i-1].Transfer {
			t.Errorf("ring %d pages slower than %d pages (%v > %v)",
				rows[i].RingPages, rows[i-1].RingPages, rows[i].Transfer, rows[i-1].Transfer)
		}
	}
	// And the smallest ring must pay something for the stalls.
	if rows[0].Transfer <= rows[len(rows)-1].Transfer {
		t.Error("ring size had no effect at all")
	}
	_ = RenderAblationRingSize(rows)
}

func TestAblationSwitchCostSensitivity(t *testing.T) {
	rows, err := AblationSwitchCost()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// HIX degrades with the switch cost; CRONUS barely moves.
	hixGrowth := float64(rows[len(rows)-1].HIX) / float64(rows[0].HIX)
	cronusGrowth := float64(rows[len(rows)-1].CRONUS) / float64(rows[0].CRONUS)
	if hixGrowth < 1.5 {
		t.Errorf("HIX grew only %.2fx across an 8x switch-cost sweep", hixGrowth)
	}
	if cronusGrowth > 1.1 {
		t.Errorf("CRONUS grew %.2fx — streamed calls should not pay switches", cronusGrowth)
	}
	_ = RenderAblationSwitchCost(rows)
}

func TestSharingPoliciesOrdering(t *testing.T) {
	rows, err := SharingPolicies(0)
	if err != nil {
		t.Fatal(err)
	}
	get := func(p string) int {
		for _, r := range rows {
			if r.Policy == p {
				return r.Steps
			}
		}
		t.Fatalf("missing policy %s", p)
		return 0
	}
	mps := get("mps-spatial")
	mig := get("mig-slices")
	temporal := get("temporal")
	reboot := get("hw-dedicated-reboot")
	// Spatial sharing beats temporal; any CRONUS policy crushes the
	// hardware approach's cold-reboot-per-switch temporal sharing.
	if mps <= temporal {
		t.Errorf("mps %d not above temporal %d", mps, temporal)
	}
	if mig <= temporal {
		t.Errorf("mig %d not above temporal %d", mig, temporal)
	}
	if reboot*5 > temporal {
		t.Errorf("cold-reboot sharing %d not dramatically below temporal %d", reboot, temporal)
	}
	_ = RenderSharingPolicies(rows)
}
