package attest

// MemoMisses returns how many KeyFromSeed, Sign and Verify calls reached raw
// ed25519 so far in this process, read from the memo's own counters.
func MemoMisses() (derive, sign, verify uint64) {
	return memo.misses[opDerive].Load(), memo.misses[opSign].Load(), memo.misses[opVerify].Load()
}

// Len is the number of live tickets.
func (c *TicketCache) Len() int { return c.lru.Len() }
