package porder

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsetBasics(t *testing.T) {
	s := NewBitset(130)
	if !s.Empty() {
		t.Fatal("new bitset not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Set(i)
		if !s.Has(i) {
			t.Fatalf("Has(%d) = false after Set", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Clear(64)
	if s.Has(64) {
		t.Fatal("Has(64) after Clear")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestBitsetHasOutOfRange(t *testing.T) {
	s := NewBitset(10)
	if s.Has(1000) {
		t.Fatal("Has out of range must be false")
	}
}

func TestBitsetElemsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		want := map[int]bool{}
		s := NewBitset(n)
		for i := 0; i < n/3; i++ {
			e := rng.Intn(n)
			want[e] = true
			s.Set(e)
		}
		got := s.Elems()
		if len(got) != len(want) {
			t.Fatalf("Elems len %d, want %d", len(got), len(want))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatal("Elems not strictly increasing")
			}
		}
		for _, e := range got {
			if !want[e] {
				t.Fatalf("unexpected element %d", e)
			}
		}
	}
}

// TestBitsetSetAlgebra checks set-algebra identities with testing/quick:
// (A ∪ B) ∩ A = A, (A \ B) ∩ B = ∅, A ⊆ A ∪ B.
func TestBitsetSetAlgebra(t *testing.T) {
	f := func(a, b []bool) bool {
		n := len(a)
		if len(b) > n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		A, B := NewBitset(n), NewBitset(n)
		for i, v := range a {
			if v {
				A.Set(i)
			}
		}
		for i, v := range b {
			if v {
				B.Set(i)
			}
		}
		union := A.Clone()
		union.UnionWith(B)
		if !A.SubsetOf(union) || !B.SubsetOf(union) {
			return false
		}
		inter := union.Clone()
		inter.IntersectWith(A)
		if !inter.Equal(A) {
			return false
		}
		diff := A.Clone()
		diff.DiffWith(B)
		if diff.Intersects(B) {
			return false
		}
		back := diff.Clone()
		back.UnionWith(B)
		if !A.SubsetOf(back) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBitsetKeyInjective: distinct sets have distinct keys (within one
// universe size).
func TestBitsetKeyInjective(t *testing.T) {
	f := func(a, b []bool) bool {
		n := len(a)
		if len(b) > n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		A, B := NewBitset(n), NewBitset(n)
		for i, v := range a {
			if v {
				A.Set(i)
			}
		}
		for i, v := range b {
			if v {
				B.Set(i)
			}
		}
		return (A.Key() == B.Key()) == A.Equal(B)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBitsetHash64EqualImpliesEqualHash: the fingerprint contract the
// checkers' memo tables rely on — A.Equal(B) ⇒ A.Hash64() == B.Hash64()
// — checked with testing/quick over random universes. The converse is
// only probabilistic and is exercised by the collision smoke test.
func TestBitsetHash64EqualImpliesEqualHash(t *testing.T) {
	f := func(a, b []bool) bool {
		n := len(a)
		if len(b) > n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		A, B := NewBitset(n), NewBitset(n)
		for i, v := range a {
			if v {
				A.Set(i)
			}
		}
		for i, v := range b {
			if v {
				B.Set(i)
			}
		}
		if A.Equal(B) && A.Hash64() != B.Hash64() {
			return false
		}
		// An independently built copy must also agree.
		C := A.Clone()
		return C.Hash64() == A.Hash64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBitsetHash64CollisionSmoke hashes thousands of random distinct
// sets over random universes and requires zero collisions — with
// 64-bit fingerprints, a single collision among ~10⁴ sets happens with
// probability ~10⁻¹², so any observed collision means the mixer is
// broken, not unlucky.
func TestBitsetHash64CollisionSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	seen := make(map[uint64]string)
	sets := 0
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		for k := 0; k < 25; k++ {
			s := NewBitset(n)
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					s.Set(i)
				}
			}
			key := s.Key()
			h := s.Hash64()
			if prev, ok := seen[h]; ok && prev != key {
				t.Fatalf("Hash64 collision: %q and %q both hash to %#x", prev, key, h)
			}
			seen[h] = key
			sets++
		}
	}
	if len(seen) < sets/2 {
		t.Fatalf("only %d distinct hashes for %d sets", len(seen), sets)
	}
}

// TestBitsetHash64LengthSensitive: sets with identical words but
// different word counts (capacities) must not share fingerprints, so
// that Equal (which compares lengths) and Hash64 agree.
func TestBitsetHash64LengthSensitive(t *testing.T) {
	a := BitsetOf(64, 3, 17)
	b := BitsetOf(128, 3, 17)
	if a.Hash64() == b.Hash64() {
		t.Fatal("fingerprints of different-capacity sets collide")
	}
}

func TestBitsetCopyFromAndClearAll(t *testing.T) {
	src := BitsetOf(100, 1, 64, 99)
	dst := FullBitset(100)
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatalf("CopyFrom: got %v, want %v", dst, src)
	}
	// Copy from a shorter set clears the tail words.
	short := BitsetOf(64, 2)
	dst.CopyFrom(short)
	if dst.Has(99) || dst.Count() != 1 || !dst.Has(2) {
		t.Fatalf("CopyFrom shorter: got %v", dst)
	}
	dst.ClearAll()
	if !dst.Empty() {
		t.Fatal("ClearAll left elements behind")
	}
}

func TestBitsetForEachOrder(t *testing.T) {
	s := BitsetOf(100, 3, 70, 4, 99)
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	want := []int{3, 4, 70, 99}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFullBitset(t *testing.T) {
	s := FullBitset(70)
	if s.Count() != 70 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Has(70) {
		t.Fatal("FullBitset(70) must not contain 70")
	}
}

func TestBitsetString(t *testing.T) {
	s := BitsetOf(10, 1, 3)
	if s.String() != "{1, 3}" {
		t.Fatalf("String = %q", s.String())
	}
	if NewBitset(4).String() != "{}" {
		t.Fatal("empty set string")
	}
}

func TestBitsetSubsetOfWithin(t *testing.T) {
	// Random same-length triples against the materialized definition.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(200)
		s, u, within := NewBitset(n), NewBitset(n), NewBitset(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				s.Set(i)
			}
			if rng.Intn(2) == 0 {
				u.Set(i)
			}
			if rng.Intn(2) == 0 {
				within.Set(i)
			}
		}
		inter := s.Clone()
		inter.IntersectWith(within)
		if got, want := s.SubsetOfWithin(u, within), inter.SubsetOf(u); got != want {
			t.Fatalf("n=%d s=%v t=%v within=%v: SubsetOfWithin = %v, want %v", n, s, u, within, got, want)
		}
	}

	// Unequal word lengths: missing words count as empty.
	for _, tc := range []struct {
		name         string
		s, u, within Bitset
		want         bool
	}{
		{"t shorter, s∩within beyond t", BitsetOf(130, 3, 100), BitsetOf(64, 3), FullBitset(130), false},
		{"t shorter, within excludes the tail", BitsetOf(130, 3, 100), BitsetOf(64, 3), FullBitset(64), true},
		{"within shorter", BitsetOf(130, 5, 129), BitsetOf(130, 5), BitsetOf(64, 5), true},
		{"s shorter", BitsetOf(64, 1), BitsetOf(130, 1), FullBitset(130), true},
		{"s shorter, missing element", BitsetOf(64, 1, 2), BitsetOf(130, 1), FullBitset(130), false},
		{"nil s", nil, nil, FullBitset(130), true},
		{"nil t", BitsetOf(70, 69), nil, FullBitset(70), false},
		{"nil within", BitsetOf(70, 69), nil, nil, true},
	} {
		if got := tc.s.SubsetOfWithin(tc.u, tc.within); got != tc.want {
			t.Errorf("%s: SubsetOfWithin = %v, want %v", tc.name, got, tc.want)
		}
	}
}
