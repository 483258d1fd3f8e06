// Scaling demo: reproduce the paper's headline speed claim — the parallel
// MRG is orders of magnitude faster than sequential GON under the simulated
// MapReduce cost model, while losing almost nothing in solution quality.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"
	"time"

	"kcenter"
)

func main() {
	const k = 25
	fmt.Printf("k = %d, 50 simulated machines; times: GON real wall vs MRG simulated parallel makespan\n\n", k)
	fmt.Printf("%10s %14s %14s %9s %14s %14s %9s\n",
		"n", "GON wall", "MRG makespan", "speedup", "GON radius", "MRG radius", "ratio")

	for _, n := range []int{20000, 50000, 100000, 200000, 500000} {
		ds := kcenter.Clustered(n, k, uint64(n))

		start := time.Now()
		gon, err := kcenter.Gonzalez(ds, k)
		if err != nil {
			log.Fatal(err)
		}
		gonWall := time.Since(start)

		mrg, err := kcenter.MRG(ds, k, kcenter.MRGOptions{})
		if err != nil {
			log.Fatal(err)
		}
		mrgWall := time.Duration(mrg.SimulatedSeconds * float64(time.Second))

		speedup := float64(gonWall) / float64(mrgWall)
		fmt.Printf("%10d %14v %14v %8.1fx %14.4f %14.4f %9.3f\n",
			n, gonWall.Round(time.Microsecond), mrgWall.Round(time.Microsecond),
			speedup, gon.Radius, mrg.Radius, mrg.Radius/gon.Radius)
	}
	fmt.Println("\nThe paper reports MRG ~100x faster than GON at n = 1,000,000 (Figure 2a)")
	fmt.Println("with solution values within a few percent (Table 2).")
}
