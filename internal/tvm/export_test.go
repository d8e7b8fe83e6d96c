package tvm

// DrawWeightsFrom draws g's weights from the filler of seed instead of the
// shipped one; it does nothing once they are drawn.
func (g *Graph) DrawWeightsFrom(seed uint64) {
	g.lower.Do(func() { g.weights = g.drawWeights(seed) })
}
