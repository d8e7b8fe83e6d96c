package rodinia

// WithSeed returns b drawing its filler inputs from seed instead of its own.
func (b Benchmark) WithSeed(seed uint64) Benchmark {
	b.seed = seed
	return b
}
