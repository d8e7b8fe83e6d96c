package trace

// SetMaxEvents lowers the collector's cap to n events, so a test can reach it
// (0 restores MaxEvents).
func (c *Collector) SetMaxEvents(n int) { c.max = n }
