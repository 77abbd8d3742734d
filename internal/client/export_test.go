package client

// Holds is what a client keeps for the tasks in flight: the IDs
// it still awaits, and the tasks of the bundles it keeps for a resubmission.
func (c *Client) Holds() (owed, held int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.owed.Len(), c.held
}
