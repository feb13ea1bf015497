// Package porder provides small fixed-universe bitsets and partial-order
// utilities (transitive closure and reduction, down-sets, linear
// extensions) used by the history and consistency-checking packages.
//
// The universes involved are event sets of distributed histories, which
// are small (the checkers are exponential by nature), so the
// representation favours simplicity and cache friendliness: a bitset is
// a slice of uint64 words.
package porder

import (
	"fmt"
	"math/bits"
	"strings"

	"github.com/paper-repro/ccbm/internal/xhash"
)

// Bitset is a set of small non-negative integers backed by uint64 words.
// The zero value is an empty set of capacity 0; use NewBitset to size it.
type Bitset []uint64

// NewBitset returns an empty bitset able to hold elements 0..n-1.
func NewBitset(n int) Bitset {
	return make(Bitset, (n+63)/64)
}

// Clone returns an independent copy of s.
func (s Bitset) Clone() Bitset {
	c := make(Bitset, len(s))
	copy(c, s)
	return c
}

// CopyFrom overwrites s with the contents of t, clearing any trailing
// words of s beyond t's length. It panics if s is shorter than t.
func (s Bitset) CopyFrom(t Bitset) {
	n := copy(s, t)
	if n < len(t) {
		panic("porder: CopyFrom into a shorter bitset")
	}
	for i := n; i < len(s); i++ {
		s[i] = 0
	}
}

// ClearAll removes every element, keeping the capacity.
func (s Bitset) ClearAll() {
	for i := range s {
		s[i] = 0
	}
}

// Set adds i to the set. It panics if i is out of capacity, which always
// indicates a bug in the caller (universes are fixed at construction).
func (s Bitset) Set(i int) { s[i/64] |= 1 << (uint(i) % 64) }

// Clear removes i from the set.
func (s Bitset) Clear(i int) { s[i/64] &^= 1 << (uint(i) % 64) }

// Has reports whether i is in the set.
func (s Bitset) Has(i int) bool {
	w := i / 64
	if w >= len(s) {
		return false
	}
	return s[w]&(1<<(uint(i)%64)) != 0
}

// Count returns the number of elements in the set.
func (s Bitset) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s Bitset) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// UnionWith adds all elements of t to s. The sets must have been created
// with the same capacity.
func (s Bitset) UnionWith(t Bitset) {
	for i := range s {
		s[i] |= t[i]
	}
}

// IntersectWith removes from s all elements not in t.
func (s Bitset) IntersectWith(t Bitset) {
	for i := range s {
		s[i] &= t[i]
	}
}

// DiffWith removes all elements of t from s.
func (s Bitset) DiffWith(t Bitset) {
	for i := range s {
		s[i] &^= t[i]
	}
}

// SubsetOf reports whether every element of s is in t.
func (s Bitset) SubsetOf(t Bitset) bool {
	for i := range s {
		if s[i]&^t[i] != 0 {
			return false
		}
	}
	return true
}

// SubsetOfWithin reports whether every element of s that is also in
// within is in t — s ∩ within ⊆ t — without materializing the
// intersection. The sets may differ in length: words missing from any
// of them count as empty.
func (s Bitset) SubsetOfWithin(t, within Bitset) bool {
	for i := 0; i < len(s) && i < len(within); i++ {
		w := s[i] & within[i]
		if i < len(t) {
			w &^= t[i]
		}
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain the same elements.
func (s Bitset) Equal(t Bitset) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share at least one element.
func (s Bitset) Intersects(t Bitset) bool {
	for i := range s {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}

// Elems returns the elements of s in increasing order.
func (s Bitset) Elems() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}

// ForEach calls f on each element in increasing order.
func (s Bitset) ForEach(f func(i int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*64 + b)
			w &= w - 1
		}
	}
}

// Hash64 returns a 64-bit fingerprint of the set, suitable as a memo
// key: Equal sets always hash alike (including the word count, so two
// sets of different capacity never accidentally share fingerprints),
// and distinct sets collide with probability ~2⁻⁶⁴. Computing it
// allocates nothing.
func (s Bitset) Hash64() uint64 {
	h := xhash.Mix(xhash.Seed, uint64(len(s)))
	for _, w := range s {
		h = xhash.Mix(h, w)
	}
	return h
}

// Key returns a compact string usable as a map key.
func (s Bitset) Key() string {
	var b strings.Builder
	for _, w := range s {
		fmt.Fprintf(&b, "%016x", w)
	}
	return b.String()
}

// String renders the set as {a, b, c} for debugging.
func (s Bitset) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

// FullBitset returns the set {0, ..., n-1}.
func FullBitset(n int) Bitset {
	s := NewBitset(n)
	for i := 0; i < n; i++ {
		s.Set(i)
	}
	return s
}

// BitsetOf returns the set containing exactly the given elements; n is
// the universe size.
func BitsetOf(n int, elems ...int) Bitset {
	s := NewBitset(n)
	for _, e := range elems {
		s.Set(e)
	}
	return s
}
