package dataset

import (
	"bytes"
	"strconv"
	"testing"
)

// BenchmarkLoadCSV times LoadCSV on three shapes: 1M two-dimensional GAU
// rows written with four decimals, the text perfbench's batch workload
// loads; the 25,010 ten-column small-integer rows of a Poker Hand-like
// file; and 50,000 KDD Cup-like rows of 41 columns, whose three symbolic
// ones autodetection must drop. Each shape builds its text only when it
// runs.
func BenchmarkLoadCSV(b *testing.B) {
	for _, c := range []struct {
		name string
		text func() []byte
	}{{"points2d", points2dCSV}, {"poker10", poker10CSV}, {"kdd41", kdd41CSV}} {
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

// kdd41CSV writes 50,000 KDDLike rows in the KDD Cup 1999 layout: the 38
// numeric features with two decimals, and symbolic protocol, service and
// flag columns at positions 1–3.
func kdd41CSV() []byte {
	kdd := KDDLike(KDDLikeConfig{N: 50_000, Seed: 1}).Points
	symbolic := [3][]string{{"tcp", "udp", "icmp"}, {"http", "smtp", "ecr_i", "private"}, {"SF", "S0", "REJ"}}
	var text []byte
	for i := 0; i < kdd.N; i++ {
		p := kdd.At(i)
		text = strconv.AppendFloat(text, p[0], 'f', 2, 64)
		for _, s := range symbolic {
			text = append(append(text, ','), s[i%len(s)]...)
		}
		for _, v := range p[1:] {
			text = strconv.AppendFloat(append(text, ','), v, 'f', 2, 64)
		}
		text = append(text, '\n')
	}
	return text
}
