package trace

// SetMaxEvents lowers the collector's cap to n events, so a test can reach it
// (0 restores DefaultMaxEvents).
func (c *Collector) SetMaxEvents(n int) {
	c.mu.Lock()
	c.max = n
	c.mu.Unlock()
}
