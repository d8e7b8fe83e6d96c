package experiments

import (
	"fmt"

	"cronus/internal/core"
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
	rows := []SharingPolicyRow{{Policy: "mps-spatial"}, {Policy: "mig-slices"}, {Policy: "temporal"}, {Policy: "hw-dedicated-reboot"}}
	err := each(len(rows), func(i int) error {
		policy := rows[i].Policy
		setup := func(pl *core.Platform) {
			dev := pl.GPUs[0].Dev
			dev.SetMPS(policy == "mps-spatial" || policy == "mig-slices")
			if policy == "mig-slices" {
				dev.ConfigureMIG(tenants)
			}
		}
		var afterStep func(pl *core.Platform, tp *sim.Proc, tenant, step int) error
		if policy == "hw-dedicated-reboot" {
			// Bus-level access control cannot see accelerator internals:
			// handing the device to the other tenant requires a cold reboot
			// to clear state.
			afterStep = func(pl *core.Platform, tp *sim.Proc, _, _ int) error {
				tp.Sleep(pl.Costs.DeviceClear)
				return nil
			}
		}
		var err error
		if rows[i].Steps, err = trainTenants(tenants, window, setup, afterStep); err != nil {
			return fmt.Errorf("sharing policy %s: %w", policy, err)
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
