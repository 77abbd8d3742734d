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
