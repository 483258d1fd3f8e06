// Quickstart: cluster a small synthetic data set with all three algorithm
// families from the paper and compare their covering radii.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"kcenter"
)

func main() {
	// 20,000 points in 10 tight Gaussian clusters spread over a 100×100
	// field — the paper's GAU family.
	const k = 10
	ds := kcenter.Clustered(20000, k, 42)
	fmt.Printf("dataset: %d points, dim %d, %d inherent clusters\n\n", ds.Len(), ds.Dim(), k)

	// Sequential baseline: Gonzalez's greedy 2-approximation (GON).
	gon, err := kcenter.Gonzalez(ds, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GON  radius %.4f  (2-approximation, sequential)\n", gon.Radius)

	// MapReduce Gonzalez (MRG): two rounds on 50 simulated machines,
	// 4-approximation — the paper's headline algorithm.
	mrg, err := kcenter.MRG(ds, k, kcenter.MRGOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MRG  radius %.4f  (%d MapReduce rounds, %g-approximation, simulated wall %.2gs)\n",
		mrg.Radius, mrg.Rounds, mrg.ApproxFactor, mrg.SimulatedSeconds)

	// Iterative sampling (EIM) with the original φ = 8.
	eim, err := kcenter.EIM(ds, k, kcenter.EIMOptions{Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EIM  radius %.4f  (%d MapReduce rounds, 10-approximation w.s.p.)\n\n",
		eim.Radius, eim.Rounds)

	// Cluster sizes under the MRG solution.
	sizes := make([]int, len(mrg.Centers))
	for _, a := range mrg.Assignment {
		sizes[a]++
	}
	fmt.Println("MRG cluster sizes:")
	for i, c := range mrg.Centers {
		p := ds.At(c)
		fmt.Printf("  center %2d at (%7.2f, %7.2f): %5d points\n", i, p[0], p[1], sizes[i])
	}
}
