package crdt

import (
	"reflect"
	"sync"
	"testing"

	"github.com/paper-repro/ccbm/internal/net"
	"github.com/paper-repro/ccbm/internal/sim"
)

func TestLWWRegisterCausalOverwrite(t *testing.T) {
	g := NewGroup(2, 3, func(nw *sim.Network, id int) *LWWRegister { return NewLWWRegister(nw, id) })
	g.Replicas[0].Write(1)
	g.Settle()
	// p1 has seen the write of 1, so its own write carries a larger
	// Lamport stamp and wins everywhere.
	g.Replicas[1].Write(2)
	g.Settle()
	for id, r := range g.Replicas {
		if got := r.Read(); got != 2 {
			t.Fatalf("replica %d: read %d, want causal overwrite 2", id, got)
		}
	}
}

func TestLWWRegisterConcurrentWritesConverge(t *testing.T) {
	// Concurrent writes: the (time, pid) tie-break picks one winner,
	// the same at every replica, under every delivery order.
	for seed := int64(0); seed < 25; seed++ {
		g := NewGroup(3, seed, func(nw *sim.Network, id int) *LWWRegister { return NewLWWRegister(nw, id) })
		g.Replicas[0].Write(10)
		g.Replicas[1].Write(20)
		g.Replicas[2].Write(30)
		g.Settle()
		if !g.Converged() {
			t.Fatalf("seed %d: diverged: %v", seed, g.Keys())
		}
		// Both stamps are (1, pid); pid 2 is the largest, so 30 wins —
		// deterministically, independent of the seed.
		if got := g.Replicas[0].Read(); got != 30 {
			t.Fatalf("seed %d: read %d, want 30 (largest pid wins the tie)", seed, got)
		}
	}
}

func TestMVRegisterKeepsConcurrentWrites(t *testing.T) {
	g := NewGroup(2, 5, func(nw *sim.Network, id int) *MVRegister { return NewMVRegister(nw, id) })
	g.Replicas[0].Write(1)
	g.Replicas[1].Write(2)
	g.Settle()
	// Neither write saw the other: both values remain visible — the
	// conflict the LWW register silently drops.
	want := []int{1, 2}
	for id, r := range g.Replicas {
		if got := r.Read(); !reflect.DeepEqual(got, want) {
			t.Fatalf("replica %d: read %v, want both concurrent values %v", id, got, want)
		}
	}
}

func TestMVRegisterCausalWriteSupersedes(t *testing.T) {
	g := NewGroup(2, 5, func(nw *sim.Network, id int) *MVRegister { return NewMVRegister(nw, id) })
	g.Replicas[0].Write(1)
	g.Replicas[1].Write(2)
	g.Settle()
	// p0 now sees {1,2}; its next write dominates both.
	g.Replicas[0].Write(3)
	g.Settle()
	want := []int{3}
	for id, r := range g.Replicas {
		if got := r.Read(); !reflect.DeepEqual(got, want) {
			t.Fatalf("replica %d: read %v, want %v after superseding write", id, got, want)
		}
	}
}

func TestMVRegisterEmptyInitially(t *testing.T) {
	g := NewGroup(2, 1, func(nw *sim.Network, id int) *MVRegister { return NewMVRegister(nw, id) })
	if got := g.Replicas[0].Read(); len(got) != 0 {
		t.Fatalf("initial read %v, want empty", got)
	}
	if got := g.Replicas[0].Key(); got != "{}" {
		t.Fatalf("initial key %q, want {}", got)
	}
}

func TestMVRegisterSameProcessSequentialWrites(t *testing.T) {
	g := NewGroup(2, 9, func(nw *sim.Network, id int) *MVRegister { return NewMVRegister(nw, id) })
	g.Replicas[0].Write(1)
	g.Replicas[0].Write(2) // program order ⊂ causal order: supersedes 1 even before any delivery
	if got := g.Replicas[0].Read(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("origin reads %v, want [2]", got)
	}
	g.Settle()
	if !g.Converged() {
		t.Fatalf("diverged: %v", g.Keys())
	}
}

// TestMVRegisterConcurrentWritesOneReplica races two writes on one
// replica of a live transport. The second write's stamp must dominate
// the first's (one replica's updates are causally ordered), so after
// quiescence every replica reads exactly one value.
func TestMVRegisterConcurrentWritesOneReplica(t *testing.T) {
	for round := 0; round < 300; round++ {
		lv := net.NewLive(2)
		rs := []*MVRegister{NewMVRegister(lv, 0), NewMVRegister(lv, 1)}
		var wg sync.WaitGroup
		for v := 1; v <= 2; v++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rs[0].Write(v)
			}()
		}
		wg.Wait()
		lv.Quiesce()
		for id, r := range rs {
			if got := r.Read(); len(got) != 1 {
				lv.Close()
				t.Fatalf("round %d: replica %d reads %v, want exactly one value", round, id, got)
			}
		}
		lv.Close()
	}
}
