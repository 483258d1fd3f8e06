package dataset

import (
	"bytes"
	"strconv"
	"testing"
)

// BenchmarkLoadCSV times LoadCSV on two shapes: 1M two-dimensional GAU
// rows written with four decimals, the text perfbench's batch workload
// loads, and the 25,010 ten-column small-integer rows of a Poker Hand-like
// file. Each shape builds its text only when it runs.
func BenchmarkLoadCSV(b *testing.B) {
	for _, c := range []struct {
		name string
		text func() []byte
	}{{"points2d", points2dCSV}, {"poker10", poker10CSV}} {
		b.Run(c.name, func(b *testing.B) {
			text := c.text()
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := LoadCSV(bytes.NewReader(text), LoadCSVOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// points2dCSV writes 1M two-dimensional GAU rows with four decimals.
func points2dCSV() []byte {
	gau := Gau(GauConfig{N: 1_000_000, Seed: 1}).Points
	var text []byte
	for i := 0; i < gau.N; i++ {
		for j, v := range gau.At(i) {
			if j > 0 {
				text = append(text, ',')
			}
			text = strconv.AppendFloat(text, v, 'f', 4, 64)
		}
		text = append(text, '\n')
	}
	return text
}

// poker10CSV writes the PokerLike rows.
func poker10CSV() []byte {
	var text bytes.Buffer
	if err := WriteCSV(&text, PokerLike(1).Points); err != nil {
		panic(err)
	}
	return text.Bytes()
}
