// Collaborative editing with causal convergence (experiment for the
// CCI discussion of Sec. 3.2): two users edit a shared sequence of
// characters concurrently. Under causal convergence (the paper's
// replacement candidate for eventual consistency, Sec. 5), both
// replicas converge to the same document; under plain causal
// consistency they may not, because concurrent inserts can be applied
// in different orders.
//
// The document is the Sequence ADT: ins(pos, v) and del(pos) updates,
// read queries. Characters are encoded as integers (their rune values)
// so the shared object stays within the paper's integer alphabets.
package main

import (
	"fmt"

	"github.com/paper-repro/ccbm/internal/adt"
	"github.com/paper-repro/ccbm/internal/core"
)

func render(vals []int) string {
	out := make([]rune, len(vals))
	for i, v := range vals {
		out[i] = rune(v)
	}
	return string(out)
}

func scenario(mode core.Mode) (string, string) {
	cluster := core.NewCluster(2, adt.Sequence{}, mode, 7)

	// Both replicas start from the shared prefix "go".
	cluster.Invoke(0, "ins", 0, 'g')
	cluster.Invoke(0, "ins", 1, 'o')
	cluster.Settle()

	// Concurrently: user 0 appends "al" while user 1 appends "od".
	cluster.Invoke(0, "ins", 2, 'a')
	cluster.Invoke(1, "ins", 2, 'o')
	cluster.Invoke(0, "ins", 3, 'l')
	cluster.Invoke(1, "ins", 3, 'd')
	cluster.Settle()

	d0 := render(cluster.Invoke(0, "read").Vals)
	d1 := render(cluster.Invoke(1, "read").Vals)
	return d0, d1
}

func main() {
	fmt.Println("Two users concurrently edit the document \"go\":")
	fmt.Println("  user 0 types \"al\" (aiming for \"goal\")")
	fmt.Println("  user 1 types \"od\" (aiming for \"good\")")
	fmt.Println()

	d0, d1 := scenario(core.ModeCCv)
	fmt.Printf("causal convergence (CCv): user0=%q user1=%q  converged=%v\n", d0, d1, d0 == d1)

	c0, c1 := scenario(core.ModeCC)
	fmt.Printf("causal consistency  (CC): user0=%q user1=%q  converged=%v\n", c0, c1, c0 == c1)

	fmt.Println()
	fmt.Println("CCv arbitrates the concurrent inserts by a shared total order")
	fmt.Println("(causal-stamp timestamps), so both replicas settle on one document.")
	fmt.Println("CC only promises each user a view consistent with causality —")
	fmt.Println("the documents may interleave the edits differently forever.")
}
