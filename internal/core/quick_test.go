package core

import (
	"math"
	"testing"
	"testing/quick"

	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

// quickInstance derives a small random instance from fuzz inputs.
func quickInstance(seed uint64, nRaw, dimRaw uint8) *metric.Dataset {
	n := int(nRaw%40) + 5
	dim := int(dimRaw%4) + 1
	r := rng.New(seed)
	ds := metric.NewDataset(n, dim)
	for i := range ds.Data {
		ds.Data[i] = r.Float64Range(-100, 100)
	}
	return ds
}

// Property: the Gonzalez radius is non-increasing in k — adding a center
// can only shrink (or preserve) the covering radius.
func TestQuickGonzalezMonotoneInK(t *testing.T) {
	f := func(seed uint64, nRaw, dimRaw uint8) bool {
		ds := quickInstance(seed, nRaw, dimRaw)
		prev := math.Inf(1)
		for k := 1; k <= 6 && k <= ds.N; k++ {
			r := Gonzalez(ds, k, Options{First: 0}).Radius
			if r > prev+1e-9 {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: the k-center objective is equivariant under translation and
// uniform scaling — radius(s·X + t) = s·radius(X) with identical centers.
func TestQuickGonzalezScaleTranslationEquivariance(t *testing.T) {
	f := func(seed uint64, nRaw uint8, scaleRaw, shiftRaw int16) bool {
		ds := quickInstance(seed, nRaw, 1)
		scale := 0.25 + math.Abs(float64(scaleRaw))/2000 // (0.25, ~17)
		shift := float64(shiftRaw) / 10
		k := 3
		orig := Gonzalez(ds, k, Options{First: 0})
		moved := ds.Clone()
		for i := range moved.Data {
			moved.Data[i] = moved.Data[i]*scale + shift
		}
		got := Gonzalez(moved, k, Options{First: 0})
		for i := range orig.Centers {
			if got.Centers[i] != orig.Centers[i] {
				return false
			}
		}
		want := orig.Radius * scale
		return math.Abs(got.Radius-want) <= 1e-6*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: every non-center point sits within the reported radius of some
// center, and at least one point realizes the radius (tightness).
func TestQuickGonzalezRadiusTight(t *testing.T) {
	f := func(seed uint64, nRaw, dimRaw, kRaw uint8) bool {
		ds := quickInstance(seed, nRaw, dimRaw)
		k := int(kRaw%5) + 1
		res := Gonzalez(ds, k, Options{First: 0})
		worst := 0.0
		for i := 0; i < ds.N; i++ {
			best := math.Inf(1)
			for _, c := range res.Centers {
				if d := ds.Dist(i, c); d < best {
					best = d
				}
			}
			if best > res.Radius+1e-9*(1+res.Radius) {
				return false // a point escapes the radius
			}
			if best > worst {
				worst = best
			}
		}
		return math.Abs(worst-res.Radius) <= 1e-9*(1+res.Radius)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
