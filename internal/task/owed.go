package task

// Owed is a set of task IDs: what a node still owes a client a result for, or
// what a client still awaits. IDs are dense where they come from IDGen — 1, 2,
// 3 … per client, and a tree's link re-sends them unchanged — so the set is a
// window: a ring of words, a bit an ID, from the lowest owed ID's word to the
// highest's. It advances as its low words clear and shrinks as it drains, so
// adding and removing IDs allocates nothing once the ring spans the IDs owed
// at once. An ID below the window, or one it cannot reach without growing too
// sparse, goes to a map: a peer can send any uint64. The zero value is empty.
type Owed struct {
	base  ID       // the first ID of the window's first word: a multiple of 64
	words []uint64 // the ring, a power of two long; its words past the window are 0
	head  int      // the window's first word in words
	n     int      // the window's length in words
	inWin int      // the IDs in the window
	far   map[ID]struct{}
}

const (
	minSpan = 64 // words the window may always span, and the ring is not shrunk below
	perID   = 4  // words more it may span for each ID in it
)

// Len is how many IDs are owed.
func (o *Owed) Len() int { return o.inWin + len(o.far) }

// bit is id's word in the window, or nil, and its bit in the word.
func (o *Owed) bit(id ID) (*uint64, uint64) {
	if i := uint64(id-o.base) >> 6; i < uint64(o.n) {
		return &o.words[(o.head+int(i))&(len(o.words)-1)], 1 << (id & 63)
	}
	return nil, 1 << (id & 63)
}

// Has reports whether id is owed.
func (o *Owed) Has(id ID) bool {
	w, b := o.bit(id)
	_, far := o.far[id]
	return w != nil && *w&b != 0 || far
}

// Add makes id owed, and reports whether it was not already.
func (o *Owed) Add(id ID) bool {
	if o.Has(id) {
		return false
	}
	w, b := o.bit(id)
	if w == nil {
		need := uint64(id-o.base)>>6 + 1
		if o.inWin == 0 {
			o.base, need = id&^63, 1
		} else if need > uint64(minSpan+perID*(o.inWin+1)) { // as below the window: need wraps
			if o.far == nil {
				o.far = make(map[ID]struct{})
			}
			o.far[id] = struct{}{}
			return true
		}
		o.fit(int(need))
		w, _ = o.bit(id)
	}
	*w |= b
	o.inWin++
	return true
}

// Remove makes id no longer owed, and reports whether it was.
func (o *Owed) Remove(id ID) bool {
	w, b := o.bit(id)
	if w == nil || *w&b == 0 {
		_, ok := o.far[id]
		if delete(o.far, id); len(o.far) == 0 {
			o.far = nil // a map keeps every bucket it grew
		}
		return ok
	}
	*w &^= b
	o.inWin--
	for o.n > 0 && o.words[o.head] == 0 {
		o.head, o.base, o.n = (o.head+1)&(len(o.words)-1), o.base+64, o.n-1
	}
	for o.n > 0 && o.words[(o.head+o.n-1)&(len(o.words)-1)] == 0 {
		o.n--
	}
	o.fit(o.n)
	return true
}

// fit makes the window n words long, in a ring doubled until it holds them,
// or halved, down to minSpan, while they fill at most an eighth of it.
func (o *Owed) fit(n int) {
	size := max(len(o.words), 8)
	for size < n {
		size *= 2
	}
	for size > minSpan && n <= size/8 {
		size /= 2
	}
	if size != len(o.words) {
		words := make([]uint64, size)
		for i := range min(o.n, n) {
			words[i] = o.words[(o.head+i)&(len(o.words)-1)]
		}
		o.words, o.head = words, 0
	}
	o.n = n
}
