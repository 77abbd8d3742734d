package dispatch

// TenantKeys lists the keys ParseTenantSpec takes, in order.
func TenantKeys() []string {
	keys := make([]string, len(tenantKeys))
	for i, k := range tenantKeys {
		keys[i] = k.key
	}
	return keys
}

// Held returns how many tasks executor id holds.
func (d *Dispatcher) Held(id string) int { return d.held(id) }

// SettleJournal returns once a journaled dispatcher has written what it owes
// its journal (at once without one): every snapshot due, cut and written, and
// every record appended, with no flush in flight. The snapshotter takes a kick
// from its one-slot channel only once it has handled the one before, so the
// third send below goes through only after the first kick, and any snapshot
// due when it was taken, is done. Rotate then waits out a flush in flight and
// writes what is buffered, as a snapshot cut does.
func (d *Dispatcher) SettleJournal() error {
	if d.wal == nil {
		return nil
	}
	for range 3 {
		d.snapKick <- struct{}{}
	}
	_, err := d.wal.Rotate()
	return err
}

// Owes reports what instance epr holds for its client: the results buffered
// for its next reattach, and the tasks it still owes a result for.
func (d *Dispatcher) Owes(epr string) (buffered, owed int) {
	d.imu.RLock()
	inst := d.instances[epr]
	d.imu.RUnlock()
	if inst == nil {
		return 0, 0
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return len(inst.buf), inst.live.Len()
}
