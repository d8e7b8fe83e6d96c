package experiments

import (
	"fmt"

	"cronus/internal/core"
	"cronus/internal/dnn"
	"cronus/internal/sim"
)

// SharingPolicyRow is one accelerator-sharing policy under a fixed
// two-tenant LeNet training load.
type SharingPolicyRow struct {
	Policy string
	Steps  int // aggregate steps completed in the window
}

// SharingPolicies compares the accelerator-sharing mechanisms the paper's
// Table I distinguishes, under two concurrent training tenants:
//
//   - "mps-spatial": CRONUS with MPS-style concurrent kernels (R2)
//   - "mig-slices": CRONUS with MIG-style static SM slices (§V-B's
//     alternative once hardware supports it)
//   - "temporal": CRONUS with whole-device exclusive kernels
//   - "hw-dedicated-reboot": the hardware-based approach's temporal sharing,
//     which must cold-reboot the accelerator on every tenant switch
//     (Table I remark ¹) — modelled by charging the device-clear time per
//     switch on top of exclusive execution.
func SharingPolicies(window sim.Duration) ([]SharingPolicyRow, error) {
	if window <= 0 {
		window = 12 * sim.Millisecond
	}
	const tenants = 2
	run := func(policy string) (int, error) {
		total := 0
		err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
			switch policy {
			case "mps-spatial":
				pl.GPUs[0].Dev.SetMPS(true)
			case "mig-slices":
				pl.GPUs[0].Dev.SetMPS(true)
				pl.GPUs[0].Dev.ConfigureMIG(tenants)
			default:
				pl.GPUs[0].Dev.SetMPS(false)
			}
			k := pl.K
			wg := sim.NewWaitGroup(k)
			counts := make([]int, tenants)
			for i := 0; i < tenants; i++ {
				i := i
				wg.Add(1)
				k.Spawn(fmt.Sprintf("tenant-%d", i), func(tp *sim.Proc) {
					defer wg.Done()
					s, err := pl.NewSession(tp, fmt.Sprintf("tenant-%d", i))
					if err != nil {
						return
					}
					conn, err := s.OpenCUDA(tp, core.CUDAOptions{Cubin: dnn.Cubin(), RingPages: 65})
					if err != nil {
						return
					}
					defer conn.Close(tp)
					tr, err := dnn.NewTrainer(tp, conn, dnn.LeNet2(), 8)
					if err != nil {
						return
					}
					deadline := tp.Now() + sim.Time(window)
					for tp.Now() < deadline {
						if _, err := tr.Step(tp); err != nil {
							return
						}
						if policy == "hw-dedicated-reboot" {
							// Bus-level access control cannot see
							// accelerator internals: handing the
							// device to the other tenant requires a
							// cold reboot to clear state.
							tp.Sleep(pl.Costs.DeviceClear)
						}
						counts[i]++
					}
				})
			}
			wg.Wait(p)
			for _, c := range counts {
				total += c
			}
			return nil
		})
		return total, err
	}
	rows := []SharingPolicyRow{{Policy: "mps-spatial"}, {Policy: "mig-slices"}, {Policy: "temporal"}, {Policy: "hw-dedicated-reboot"}}
	err := each(len(rows), func(i int) error {
		var err error
		if rows[i].Steps, err = run(rows[i].Policy); err != nil {
			return fmt.Errorf("sharing policy %s: %w", rows[i].Policy, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderSharingPolicies formats the policy comparison.
func RenderSharingPolicies(rows []SharingPolicyRow) *Table {
	t := &Table{
		Title:   "Sharing policies: 2 training tenants on one GPU (aggregate steps per window)",
		Columns: []string{"policy", "steps"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Policy, fmt.Sprintf("%d", r.Steps)})
	}
	return t
}
