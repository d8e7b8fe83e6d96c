package sim

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }
