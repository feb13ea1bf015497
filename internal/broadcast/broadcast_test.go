package broadcast_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/paper-repro/ccbm/internal/broadcast"
	"github.com/paper-repro/ccbm/internal/net"
	"github.com/paper-repro/ccbm/internal/sim"
)

// recorder collects deliveries per process.
type recorder struct {
	mu   sync.Mutex
	msgs [][]delivery
}

type delivery struct {
	origin  int
	payload any
}

func newRecorder(n int) *recorder { return &recorder{msgs: make([][]delivery, n)} }

func (r *recorder) deliver(p int) broadcast.Deliver {
	return func(origin int, payload any) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.msgs[p] = append(r.msgs[p], delivery{origin, payload})
	}
}

func TestReliableEveryoneDeliversOnce(t *testing.T) {
	nw := sim.New(4, 1)
	rec := newRecorder(4)
	var bs []*broadcast.Reliable
	for i := 0; i < 4; i++ {
		bs = append(bs, broadcast.NewReliable(nw, i, rec.deliver(i)))
	}
	bs[0].Broadcast("hello")
	bs[2].Broadcast("world")
	nw.Run(0)
	for p := 0; p < 4; p++ {
		if len(rec.msgs[p]) != 2 {
			t.Fatalf("process %d delivered %d messages, want 2", p, len(rec.msgs[p]))
		}
	}
}

func TestReliableLocalDeliveryImmediate(t *testing.T) {
	nw := sim.New(3, 2)
	rec := newRecorder(3)
	b := broadcast.NewReliable(nw, 0, rec.deliver(0))
	broadcast.NewReliable(nw, 1, rec.deliver(1))
	broadcast.NewReliable(nw, 2, rec.deliver(2))
	b.Broadcast("x")
	// Before any network step, the broadcaster has delivered locally.
	if len(rec.msgs[0]) != 1 {
		t.Fatal("local delivery not immediate")
	}
	if len(rec.msgs[1]) != 0 {
		t.Fatal("remote delivery happened without network steps")
	}
	nw.Run(0)
}

// TestReliableSurvivesOriginCrash: flooding gives uniform reliability —
// if any live process received the message, all live processes
// eventually do, even though the origin crashed mid-broadcast.
func TestReliableSurvivesOriginCrash(t *testing.T) {
	nw := sim.New(4, 3)
	rec := newRecorder(4)
	var bs []*broadcast.Reliable
	for i := 0; i < 4; i++ {
		bs = append(bs, broadcast.NewReliable(nw, i, rec.deliver(i)))
	}
	bs[0].Broadcast("m")
	// Deliver exactly one copy (to some process), then crash the origin.
	nw.Step()
	nw.Crash(0)
	nw.Run(0)
	for p := 1; p < 4; p++ {
		if len(rec.msgs[p]) != 1 {
			t.Fatalf("process %d did not deliver after origin crash", p)
		}
	}
}

func TestFIFOOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		nw := sim.New(3, seed)
		rec := newRecorder(3)
		var bs []*broadcast.FIFO
		for i := 0; i < 3; i++ {
			bs = append(bs, broadcast.NewFIFO(nw, i, rec.deliver(i)))
		}
		for i := 0; i < 10; i++ {
			bs[0].Broadcast(i)
		}
		nw.Run(0)
		for p := 0; p < 3; p++ {
			if len(rec.msgs[p]) != 10 {
				t.Fatalf("seed %d: process %d got %d messages", seed, p, len(rec.msgs[p]))
			}
			for i, d := range rec.msgs[p] {
				if d.payload.(int) != i {
					t.Fatalf("seed %d: process %d saw %v out of order", seed, p, rec.msgs[p])
				}
			}
		}
	}
}

// TestCausalOrder: with causal broadcast, if m was broadcast after its
// sender delivered m', no process delivers m before m'. We generate a
// causal chain across processes and check delivery prefixes.
func TestCausalOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		nw := sim.New(3, seed)
		rec := newRecorder(3)
		var bs []*broadcast.Causal
		for i := 0; i < 3; i++ {
			bs = append(bs, broadcast.NewCausal(nw, i, rec.deliver(i)))
		}
		// p0 broadcasts a; once p1 delivers a it broadcasts b; once p2
		// delivers b it broadcasts c. a → b → c causally.
		bs[0].Broadcast("a")
		// Drive until quiescence, reacting to deliveries.
		reacted1, reacted2 := false, false
		for {
			progressed := nw.Step()
			rec.mu.Lock()
			if !reacted1 {
				for _, d := range rec.msgs[1] {
					if d.payload == "a" {
						reacted1 = true
					}
				}
				if reacted1 {
					rec.mu.Unlock()
					bs[1].Broadcast("b")
					rec.mu.Lock()
				}
			}
			if !reacted2 {
				for _, d := range rec.msgs[2] {
					if d.payload == "b" {
						reacted2 = true
					}
				}
				if reacted2 {
					rec.mu.Unlock()
					bs[2].Broadcast("c")
					rec.mu.Lock()
				}
			}
			rec.mu.Unlock()
			if !progressed {
				break
			}
		}
		// Every process must deliver a before b before c.
		for p := 0; p < 3; p++ {
			pos := map[any]int{}
			for i, d := range rec.msgs[p] {
				pos[d.payload] = i
			}
			for _, pair := range [][2]any{{"a", "b"}, {"b", "c"}} {
				i1, ok1 := pos[pair[0]]
				i2, ok2 := pos[pair[1]]
				if ok2 && (!ok1 || i1 > i2) {
					t.Fatalf("seed %d: process %d delivered %v before %v", seed, p, pair[1], pair[0])
				}
			}
		}
	}
}

func TestCausalVCProgress(t *testing.T) {
	nw := sim.New(2, 4)
	rec := newRecorder(2)
	b0 := broadcast.NewCausal(nw, 0, rec.deliver(0))
	broadcast.NewCausal(nw, 1, rec.deliver(1))
	b0.Broadcast("x")
	b0.Broadcast("y")
	nw.Run(0)
	vc := b0.VC()
	if vc[0] != 2 {
		t.Fatalf("VC = %v, want [2 0]", vc)
	}
}

// TestTotalOrderAgreement: all processes deliver all messages in the
// same order, which extends causality.
func TestTotalOrderAgreement(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		nw := sim.New(3, seed)
		rec := newRecorder(3)
		var bs []*broadcast.Total
		for i := 0; i < 3; i++ {
			bs = append(bs, broadcast.NewTotal(nw, i, rec.deliver(i)))
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 9; i++ {
			bs[rng.Intn(3)].Broadcast(fmt.Sprintf("m%d", i))
			for d := rng.Intn(3); d > 0; d-- {
				nw.Step()
			}
		}
		nw.Run(0)
		if len(rec.msgs[0]) != 9 {
			t.Fatalf("seed %d: delivered %d, want 9", seed, len(rec.msgs[0]))
		}
		for p := 1; p < 3; p++ {
			if len(rec.msgs[p]) != len(rec.msgs[0]) {
				t.Fatalf("seed %d: delivery counts differ", seed)
			}
			for i := range rec.msgs[p] {
				if rec.msgs[p][i].payload != rec.msgs[0][i].payload {
					t.Fatalf("seed %d: orders differ at %d: %v vs %v", seed, i, rec.msgs[p][i], rec.msgs[0][i])
				}
			}
		}
	}
}

// TestLayersOnLiveTransport runs each layer over the goroutine
// transport to exercise the locking paths under the race detector.
func TestLayersOnLiveTransport(t *testing.T) {
	lv := net.NewLive(3)
	rec := newRecorder(3)
	var bs []*broadcast.Causal
	for i := 0; i < 3; i++ {
		bs = append(bs, broadcast.NewCausal(lv, i, rec.deliver(i)))
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				bs[i].Broadcast(fmt.Sprintf("p%d-%d", i, j))
			}
		}(i)
	}
	wg.Wait()
	lv.Quiesce()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for p := 0; p < 3; p++ {
		if len(rec.msgs[p]) != 60 {
			t.Fatalf("process %d delivered %d, want 60", p, len(rec.msgs[p]))
		}
	}
	lv.Close()
}

// TestTotalAgreementLive: on the goroutine transport, with every
// process broadcasting concurrently, all processes still deliver the
// same total order. A Lamport stamp that leaves out of FIFO sequence
// order, or a ready list dispatched after a later one, breaks it.
func TestTotalAgreementLive(t *testing.T) {
	const n, per = 4, 100
	lv := net.NewLive(n)
	defer lv.Close()
	rec := newRecorder(n)
	var bs []*broadcast.Total
	for i := 0; i < n; i++ {
		bs = append(bs, broadcast.NewTotal(lv, i, rec.deliver(i)))
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				bs[i].Broadcast(fmt.Sprintf("p%d-%d", i, j))
			}
		}(i)
	}
	wg.Wait()
	lv.Quiesce()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for p := 0; p < n; p++ {
		if len(rec.msgs[p]) != n*per {
			t.Fatalf("process %d delivered %d, want %d", p, len(rec.msgs[p]), n*per)
		}
		for i := range rec.msgs[p] {
			if rec.msgs[p][i] != rec.msgs[0][i] {
				t.Fatalf("process %d diverges from p0 at %d: %v vs %v", p, i, rec.msgs[p][i], rec.msgs[0][i])
			}
		}
	}
}

// TestCausalConcurrentBroadcasters: two goroutines broadcasting on one
// process must never share a causal stamp. A stamp taken outside the
// sequence lock lets both messages claim the same slot, and the second
// is never causally ready anywhere, p0 included.
func TestCausalConcurrentBroadcasters(t *testing.T) {
	const n, per = 2, 200
	lv := net.NewLive(n)
	defer lv.Close()
	rec := newRecorder(n)
	var bs []*broadcast.Causal
	for i := 0; i < n; i++ {
		bs = append(bs, broadcast.NewCausal(lv, i, rec.deliver(i)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				bs[0].Broadcast(fmt.Sprintf("g%d-%d", g, j))
			}
		}(g)
	}
	wg.Wait()
	lv.Quiesce()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for p := 0; p < n; p++ {
		if len(rec.msgs[p]) != 2*per {
			t.Fatalf("process %d delivered %d, want %d", p, len(rec.msgs[p]), 2*per)
		}
	}
}
