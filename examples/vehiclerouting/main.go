// Vehicle routing / facility placement: choose k depot locations among
// delivery addresses so the farthest address is as close as possible to its
// depot — the k-center objective the paper's introduction motivates with
// "furthest traveling time".
//
// The demo builds a synthetic metro area (dense urban core, suburban rings,
// rural sprinkle), places depots with the parallel MRG algorithm, and
// reports worst-case and per-depot travel distances.
//
//	go run ./examples/vehiclerouting
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"kcenter"
	"kcenter/internal/rng"
)

func main() {
	addresses := buildMetroArea(40000, 7)
	ds, err := kcenter.NewDataset(addresses)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("metro area: %d delivery addresses\n\n", ds.Len())

	for _, k := range []int{3, 6, 12} {
		res, err := kcenter.MRG(ds, k, kcenter.MRGOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("k = %2d depots: worst-case travel %.2f km  (%d MapReduce rounds)\n",
			k, res.Radius, res.Rounds)

		// Per-depot load and local worst case.
		type depot struct {
			x, y  float64
			load  int
			reach float64
		}
		depots := make([]depot, k)
		for i, c := range res.Centers {
			p := ds.At(c)
			depots[i] = depot{x: p[0], y: p[1]}
		}
		for i := 0; i < ds.Len(); i++ {
			a := res.Assignment[i]
			depots[a].load++
			p := ds.At(i)
			d := math.Hypot(p[0]-depots[a].x, p[1]-depots[a].y)
			if d > depots[a].reach {
				depots[a].reach = d
			}
		}
		sort.Slice(depots, func(i, j int) bool { return depots[i].load > depots[j].load })
		for i, d := range depots {
			fmt.Printf("   depot %2d at (%6.2f, %6.2f): %6d addresses, local worst case %6.2f km\n",
				i+1, d.x, d.y, d.load, d.reach)
		}
		fmt.Println()
	}
}

// buildMetroArea synthesizes address coordinates (km): half the addresses in
// a dense core, a band in suburban clusters, and a rural remainder.
func buildMetroArea(n int, seed uint64) [][]float64 {
	r := rng.New(seed)
	out := make([][]float64, 0, n)
	// Urban core around (50, 50).
	for i := 0; i < n/2; i++ {
		out = append(out, []float64{50 + r.NormFloat64()*4, 50 + r.NormFloat64()*4})
	}
	// Eight suburban town centers.
	towns := make([][2]float64, 8)
	for i := range towns {
		angle := float64(i) / 8 * 2 * math.Pi
		towns[i] = [2]float64{50 + 25*math.Cos(angle), 50 + 25*math.Sin(angle)}
	}
	for i := 0; i < 2*n/5; i++ {
		tc := towns[r.Intn(len(towns))]
		out = append(out, []float64{tc[0] + r.NormFloat64()*2, tc[1] + r.NormFloat64()*2})
	}
	// Rural addresses spread over the whole 100×100 km region.
	for len(out) < n {
		out = append(out, []float64{r.Float64() * 100, r.Float64() * 100})
	}
	return out
}
