package check

// fpTable is the linearization search's hash table: keys are 64-bit
// fingerprints that are already well mixed (xhash.Mix outputs), so the
// low bits index a power-of-two slot array directly and collisions are
// resolved by linear probing. On the search's hot path a Go map's
// hashing, bucket walk and incremental growth would be most of the
// per-node cost.
//
// Every slot carries the epoch it was written in, and only slots of
// the current epoch are live, so reset empties the table in O(1) —
// the per-query failed-state memo resets once per query. When the
// epoch counter wraps, reset clears the stamps so that no slot written
// 2^32 resets ago reads back as live.
//
// The zero value is an empty table; it allocates fpTableMin slots on
// the first put and doubles whenever an insert would take the load
// above ½, so the tiny queries of the paper's figures stay tiny.
type fpTable[V any] struct {
	slots []fpSlot[V]
	epoch uint32 // stamp of the live slots; ≥ 1 once slots exist
	live  int
}

type fpSlot[V any] struct {
	key   uint64
	stamp uint32
	val   V
}

const fpTableMin = 32

// get returns the value stored under k in the current epoch.
func (t *fpTable[V]) get(k uint64) (V, bool) {
	if len(t.slots) > 0 {
		mask := uint64(len(t.slots) - 1)
		for i := k & mask; t.slots[i].stamp == t.epoch; i = (i + 1) & mask {
			if t.slots[i].key == k {
				return t.slots[i].val, true
			}
		}
	}
	var zero V
	return zero, false
}

// put stores v under k, replacing any value k already has.
func (t *fpTable[V]) put(k uint64, v V) {
	if 2*(t.live+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := k & mask
	for ; t.slots[i].stamp == t.epoch; i = (i + 1) & mask {
		if t.slots[i].key == k {
			t.slots[i].val = v
			return
		}
	}
	t.slots[i] = fpSlot[V]{key: k, stamp: t.epoch, val: v}
	t.live++
}

// grow doubles the slot array (or allocates the first one) and
// reinserts the live slots.
func (t *fpTable[V]) grow() {
	old := t.slots
	t.slots = make([]fpSlot[V], max(fpTableMin, 2*len(old)))
	if t.epoch == 0 {
		t.epoch = 1
	}
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.stamp != t.epoch {
			continue
		}
		i := s.key & mask
		for t.slots[i].stamp == t.epoch {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// reset empties the table, keeping its slot array.
func (t *fpTable[V]) reset() {
	t.live = 0
	t.epoch++
	if t.epoch == 0 {
		for i := range t.slots {
			t.slots[i].stamp = 0
		}
		t.epoch = 1
	}
}
