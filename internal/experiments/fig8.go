package experiments

import (
	"fmt"

	"cronus/internal/accel"
	"cronus/internal/baseline"
	"cronus/internal/dnn"
	"cronus/internal/sim"
)

// Fig8Row is one DNN training workload across the four systems.
type Fig8Row struct {
	Model    string
	Dataset  string
	Batch    int
	Times    map[baseline.System]sim.Duration // total over the run's iterations
	Overhead map[baseline.System]float64      // vs native
}

// Figure8 reproduces the DNN training comparison: per-iteration training
// time of LeNet-2/MNIST, ResNet50/CIFAR-10, VGG16/CIFAR-10 and
// DenseNet/ImageNet under PyTorch-style streams on the four systems.
func Figure8(iters, batch int) ([]Fig8Row, error) {
	if iters <= 0 {
		iters = 3
	}
	if batch <= 0 {
		batch = 16
	}
	models := dnn.TrainingModels()
	// Training iterations only, not setup.
	stepTimes, err := grid(len(models), len(GPUSystems), func(r, c int) (sim.Duration, error) {
		model, system := models[r], GPUSystems[c]
		var steps sim.Duration
		_, err := RunOnSystem(system, dnn.Cubin(), nil, nil, func(p *sim.Proc, ops accel.CUDA) error {
			tr, err := dnn.NewTrainer(p, ops, model, batch)
			if err != nil {
				return err
			}
			start := p.Now()
			for it := 0; it < iters; it++ {
				if _, err := tr.Step(p); err != nil {
					return err
				}
			}
			steps = sim.Duration(p.Now() - start)
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("fig8 %s on %s: %w", model.Name, system, err)
		}
		return steps, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig8Row
	for r, model := range models {
		row := Fig8Row{
			Model:    model.Name,
			Dataset:  model.Dataset,
			Batch:    batch,
			Times:    make(map[baseline.System]sim.Duration),
			Overhead: make(map[baseline.System]float64),
		}
		for s, system := range GPUSystems {
			row.Times[system] = stepTimes[r][s]
		}
		native := float64(row.Times[baseline.Native])
		for s, d := range row.Times {
			row.Overhead[s] = float64(d)/native - 1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure8 formats training times and overheads.
func RenderFigure8(rows []Fig8Row) *Table {
	t := &Table{
		Title:   "Figure 8: DNN training time (PyTorch-style streams)",
		Columns: []string{"model", "dataset", "native(ms)", "trustzone", "hix-trustzone", "cronus", "cronus overhead"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Model, r.Dataset,
			ms(r.Times[baseline.Native]),
			ms(r.Times[baseline.TrustZone]),
			ms(r.Times[baseline.HIX]),
			ms(r.Times[baseline.CRONUS]),
			fmt.Sprintf("%+.2f%%", 100*r.Overhead[baseline.CRONUS]),
		})
	}
	return t
}
