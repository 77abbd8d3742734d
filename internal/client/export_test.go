package client

import "reflect"

// MapEntries counts the entries of every map the client holds, whatever the
// field is called: the per-task state a long-lived client keeps.
func (c *Client) MapEntries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := reflect.ValueOf(c).Elem()
	n := 0
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Map {
			n += f.Len()
		}
	}
	return n
}
