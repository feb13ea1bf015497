package check

import (
	"math"
	"testing"
)

// fpOp is one step of an fpTable workload: put key → val, get key, or
// reset. jump is a reset that also advances the epoch to
// MaxUint32-1, standing in for ~2^32 resets so wrap-around is reached.
type fpOp struct {
	kind byte // 'p'ut, 'g'et, 'r'eset, 'j'ump
	key  uint64
	val  int
}

// runFPTableOps applies ops to a fresh fpTable and to a map reference,
// failing on the first divergence. After every op each key the
// workload ever touched is looked up in both, so a stale or lost entry
// is caught at the op that caused it.
func runFPTableOps(t *testing.T, ops []fpOp) {
	t.Helper()
	var tab fpTable[int]
	ref := map[uint64]int{}
	seen := map[uint64]bool{}
	for i, op := range ops {
		switch op.kind {
		case 'p':
			tab.put(op.key, op.val)
			ref[op.key] = op.val
			seen[op.key] = true
		case 'g':
			seen[op.key] = true
		case 'r':
			tab.reset()
			clear(ref)
		case 'j':
			tab.reset()
			clear(ref)
			// Only ever move the epoch forward: that is what the
			// skipped resets would have done.
			if tab.epoch < math.MaxUint32-1 {
				tab.epoch = math.MaxUint32 - 1
			}
		}
		if tab.live != len(ref) {
			t.Fatalf("op %d %c: live = %d, reference holds %d", i, op.kind, tab.live, len(ref))
		}
		if n := len(tab.slots); n != 0 && (n&(n-1) != 0 || n < fpTableMin || 2*tab.live > n) {
			t.Fatalf("op %d %c: %d slots for %d live keys", i, op.kind, n, tab.live)
		}
		for k := range seen {
			got, ok := tab.get(k)
			want, wantOK := ref[k]
			if ok != wantOK || got != want {
				t.Fatalf("op %d %c: get(%#x) = %d, %v; want %d, %v", i, op.kind, k, got, ok, want, wantOK)
			}
		}
	}
}

// collidingKey returns keys that all land in slot s of any table of
// at least fpTableMin slots, so probing chains are exercised.
func collidingKey(s, i int) uint64 { return uint64(s) | uint64(i)<<40 }

func TestFPTable(t *testing.T) {
	puts := func(from, to, val int) []fpOp {
		var ops []fpOp
		for k := from; k < to; k++ {
			ops = append(ops, fpOp{kind: 'p', key: uint64(k) * 0x9e3779b97f4a7c15, val: val + k})
		}
		return ops
	}
	cat := func(parts ...[]fpOp) []fpOp {
		var ops []fpOp
		for _, p := range parts {
			ops = append(ops, p...)
		}
		return ops
	}
	r := []fpOp{{kind: 'r'}}
	for _, tc := range []struct {
		name string
		ops  []fpOp
	}{
		{"empty get", []fpOp{{kind: 'g', key: 7}}},
		{"zero key", []fpOp{{kind: 'p', key: 0, val: 1}, {kind: 'g', key: 0}}},
		{"key inserted twice", []fpOp{{kind: 'p', key: 5, val: 1}, {kind: 'p', key: 5, val: 2}, {kind: 'g', key: 5}}},
		{"reset before first put", []fpOp{{kind: 'r'}, {kind: 'p', key: 9, val: 3}, {kind: 'r'}, {kind: 'g', key: 9}}},
		{"colliding chain", []fpOp{
			{kind: 'p', key: collidingKey(3, 0), val: 0}, {kind: 'p', key: collidingKey(3, 1), val: 1},
			{kind: 'p', key: collidingKey(4, 0), val: 2}, {kind: 'p', key: collidingKey(3, 2), val: 3},
			{kind: 'p', key: collidingKey(3, 1), val: 4}, {kind: 'r'}, {kind: 'p', key: collidingKey(3, 2), val: 5},
		}},
		{"chain wraps past the last slot", []fpOp{
			{kind: 'p', key: collidingKey(31, 0), val: 0}, {kind: 'p', key: collidingKey(31, 1), val: 1},
			{kind: 'p', key: collidingKey(0, 0), val: 2}, {kind: 'g', key: collidingKey(31, 2)},
		}},
		{"growth", puts(0, 200, 0)},
		{"growth across resets", cat(puts(0, 20, 0), r, puts(10, 300, 1), r, puts(0, 40, 2), r, puts(250, 260, 3))},
		{"reinsert after reset", cat(puts(0, 16, 0), r, puts(0, 16, 5), r, r, puts(8, 24, 6))},
		{"epoch wrap-around", cat(puts(0, 10, 0), []fpOp{{kind: 'j'}}, puts(5, 50, 1), r, puts(0, 3, 2), r, r, puts(40, 45, 3))},
	} {
		t.Run(tc.name, func(t *testing.T) { runFPTableOps(t, tc.ops) })
	}
}

// TestFPTableEpochWrap pins the wrap-around itself: a key written at
// epoch 1 must not read back when the epoch comes round to 1 again.
func TestFPTableEpochWrap(t *testing.T) {
	var tab fpTable[int]
	tab.put(11, 1)
	if tab.epoch != 1 {
		t.Fatalf("epoch after first put = %d, want 1", tab.epoch)
	}
	tab.epoch = math.MaxUint32 - 1 // as if ~2^32 resets had passed
	tab.live = 0
	tab.put(22, 2)
	for _, want := range []uint32{math.MaxUint32, 1, 2} {
		tab.reset()
		if tab.epoch != want {
			t.Fatalf("epoch = %d, want %d", tab.epoch, want)
		}
		for _, k := range []uint64{11, 22} {
			if v, ok := tab.get(k); ok {
				t.Fatalf("epoch %d: stale key %d reads back %d", tab.epoch, k, v)
			}
		}
	}
	tab.put(11, 3)
	if v, ok := tab.get(11); !ok || v != 3 {
		t.Fatalf("get(11) after wrap = %d, %v; want 3, true", v, ok)
	}
}

// FuzzFPTable decodes the input into an fpTable workload — two bytes
// per op, the first choosing put/get/reset/jump and the key's slot,
// the second the key's high bits — over a key space small enough that
// keys repeat and probe chains collide.
func FuzzFPTable(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x04, 0x01, 0x02, 0x00})
	f.Add([]byte("put-get-reset-jump-and-grow over a longer workload: 0123456789abcdefghijklmnopqrstuvwxyz"))
	f.Add(func() []byte {
		var b []byte
		for i := 0; i < 64; i++ {
			b = append(b, byte(i<<2), byte(i))
		}
		return append(b, 0x03, 0, 0x02, 0, 0x07, 0, 0x02, 5)
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		var ops []fpOp
		for i := 0; i+1 < len(data); i += 2 {
			a, b := data[i], data[i+1]
			key := uint64(a>>2) | uint64(b&7)<<40
			switch {
			case a&3 <= 1:
				ops = append(ops, fpOp{kind: 'p', key: key, val: int(b)})
			case a&3 == 2:
				ops = append(ops, fpOp{kind: 'g', key: key})
			case b&0x80 != 0:
				ops = append(ops, fpOp{kind: 'j'})
			default:
				ops = append(ops, fpOp{kind: 'r'})
			}
		}
		runFPTableOps(t, ops)
	})
}
