package harness

import "testing"

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(append([]float64(nil), xs...), 0.5); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := percentile(append([]float64(nil), xs...), 0.99); got != 5 {
		t.Fatalf("p99 = %v, want 5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty p50 = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.01); got != 7 {
		t.Fatalf("singleton p1 = %v, want 7", got)
	}
}
