package dispatch

import "testing"

// Every EPR a dispatcher mints is no longer than the first name of the
// sequence EPRs once were, "falkon-instance-1" (so no grant, delivery or
// journal record grows), and none equals another instance's it holds.
func TestInstanceNamesAreShortAndUnique(t *testing.T) {
	const n = 1 << 16
	d := New(Options{Logf: t.Logf})
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		d.imu.Lock()
		epr := d.mintEPRLocked()
		d.instances[epr] = &instance{epr: epr}
		d.imu.Unlock()
		if len(epr) == 0 || len(epr) > len("falkon-instance-1") || seen[epr] {
			t.Fatalf("mint %d was %q (seen before: %v), want a fresh name of 1 to 17 bytes", i, epr, seen[epr])
		}
		seen[epr] = true
	}
	if len(d.instances) != n {
		t.Fatalf("the dispatcher holds %d instances after %d mints", len(d.instances), n)
	}
}
