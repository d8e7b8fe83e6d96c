package core

// Ring returns a view of the connection bound to stream i (mod its rings):
// the same enclave, chunking and session, but calls issued through it travel
// the selected ring and executor. Views share lifecycle with the parent —
// Close/Abandon on the parent tears every ring down.
func (c *CUDAConn) Ring(i int) *CUDAConn {
	r := *c
	r.client = c.rings[i%len(c.rings)]
	return &r
}
