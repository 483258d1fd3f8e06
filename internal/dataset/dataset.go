// Package dataset provides the synthetic generators and file loaders behind
// every experiment in the reproduction.
//
// The paper (§7.3) evaluates on three synthetic families and several UCI
// data sets:
//
//   - UNIF: n points uniform in a two-dimensional square.
//   - GAU:  k′ cluster centers uniform at random; points assigned to
//     clusters uniformly; per-coordinate Gaussian displacement around the
//     cluster center (σ = 1/10). Mimics Ene et al.'s experiments.
//   - UNB:  like GAU but deliberately unbalanced — about half of the points
//     land in a single inherent cluster.
//   - Real data: UCI Poker Hand (25,010 training rows) and the KDD Cup 1999
//     10% sample.
//
// The UCI files are not redistributable inside this repository, so we
// provide (a) LoadCSV, which reads the real files when the user supplies
// them, and (b) PokerLike / KDDLike generators that reproduce the geometry
// that drives the paper's findings (see DESIGN.md §5 for the substitution
// rationale). All generators are deterministic given a seed.
//
// Scale note: the paper's §7.3 describes cluster centers in a "unit cube"
// with σ = 1/10, but the reported objective values (e.g. Table 2: 96.04 at
// k=2 vs 0.961 at k=25) show a ~100:1 ratio between inter- and intra-cluster
// distances, i.e. centers spread over a region of side ~100 with absolute
// σ ≈ 0.1. We default to Side = 100 and Sigma = 0.1, which reproduces the
// magnitudes of Tables 2, 4 and 6; both are configurable.
package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"

	"kcenter/internal/metric"
	"kcenter/internal/rng"
)

// Labeled couples a dataset with its ground-truth inherent-cluster labels
// (when the generator knows them; -1 marks noise/outlier points).
type Labeled struct {
	Points *metric.Dataset
	Labels []int
	// Name identifies the generator and parameters for experiment output.
	Name string
}

// UnifConfig parameterizes the UNIF generator.
type UnifConfig struct {
	N    int     // number of points
	Dim  int     // dimensionality; the paper uses 2
	Side float64 // square side length; see package comment
	Seed uint64
}

// Defaults fills zero fields with the paper's settings.
func (c UnifConfig) defaults() UnifConfig {
	if c.Dim == 0 {
		c.Dim = 2
	}
	if c.Side == 0 {
		c.Side = 100
	}
	return c
}

// Unif generates n points uniformly distributed in a Dim-dimensional cube of
// the configured side (paper §7.3, UNIF).
func Unif(c UnifConfig) *Labeled {
	c = c.defaults()
	r := rng.New(c.Seed)
	ds := metric.NewDataset(c.N, c.Dim)
	for i := range ds.Data {
		ds.Data[i] = r.Float64() * c.Side
	}
	labels := make([]int, c.N)
	for i := range labels {
		labels[i] = -1 // no inherent clusters
	}
	return &Labeled{Points: ds, Labels: labels, Name: fmt.Sprintf("UNIF(n=%d,d=%d)", c.N, c.Dim)}
}

// GauConfig parameterizes the GAU and UNB generators.
type GauConfig struct {
	N      int     // number of points
	KPrime int     // number of inherent clusters (paper's k′)
	Dim    int     // dimensionality; the paper uses 2 and 3
	Side   float64 // cluster centers are uniform in [0, Side]^Dim
	Sigma  float64 // per-coordinate Gaussian displacement
	Seed   uint64
	// HeavyFraction, when positive, routes that fraction of the points into
	// inherent cluster 0, producing the UNB family. Zero means balanced GAU.
	HeavyFraction float64
}

func (c GauConfig) defaults() GauConfig {
	if c.Dim == 0 {
		c.Dim = 2
	}
	if c.Side == 0 {
		c.Side = 100
	}
	if c.Sigma == 0 {
		c.Sigma = 0.1
	}
	if c.KPrime == 0 {
		c.KPrime = 25
	}
	return c
}

// Gau generates the paper's GAU family: KPrime cluster centers uniform in the
// cube, points assigned to clusters uniformly at random, per-coordinate
// Gaussian displacement with the configured sigma.
func Gau(c GauConfig) *Labeled {
	c = c.defaults()
	c.HeavyFraction = 0
	l := gaussianMixture(c)
	l.Name = fmt.Sprintf("GAU(n=%d,k'=%d,d=%d)", c.N, c.KPrime, c.Dim)
	return l
}

// Unb generates the paper's UNB family: identical to GAU except roughly half
// of the points are biased into a single inherent cluster, with the rest
// distributed uniformly among the remaining clusters.
func Unb(c GauConfig) *Labeled {
	c = c.defaults()
	if c.HeavyFraction == 0 {
		c.HeavyFraction = 0.5
	}
	l := gaussianMixture(c)
	l.Name = fmt.Sprintf("UNB(n=%d,k'=%d,d=%d)", c.N, c.KPrime, c.Dim)
	return l
}

func gaussianMixture(c GauConfig) *Labeled {
	if c.KPrime <= 0 {
		panic("dataset: gaussian mixture requires KPrime >= 1")
	}
	r := rng.New(c.Seed)
	centers := metric.NewDataset(c.KPrime, c.Dim)
	for i := range centers.Data {
		centers.Data[i] = r.Float64() * c.Side
	}
	ds := metric.NewDataset(c.N, c.Dim)
	labels := make([]int, c.N)
	for i := 0; i < c.N; i++ {
		var cl int
		if c.HeavyFraction > 0 && r.Bernoulli(c.HeavyFraction) {
			cl = 0
		} else if c.HeavyFraction > 0 && c.KPrime > 1 {
			cl = 1 + r.Intn(c.KPrime-1)
		} else {
			cl = r.Intn(c.KPrime)
		}
		labels[i] = cl
		p := ds.At(i)
		cp := centers.At(cl)
		for j := range p {
			p[j] = cp[j] + r.NormFloat64()*c.Sigma
		}
	}
	return &Labeled{Points: ds, Labels: labels}
}

// PokerLike generates a 25,010 × 10 data set with the geometry of the UCI
// Poker Hand training set: each row is five playing cards drawn without
// replacement from a 52-card deck, encoded as (suit ∈ 1..4, rank ∈ 1..13)
// pairs — the exact attribute layout of the UCI file. Distances therefore
// live on the same small discrete grid as the real data (Table 5's values
// all fall in 8..20).
func PokerLike(seed uint64) *Labeled {
	const rows, cards = 25010, 5
	r := rng.New(seed)
	ds := metric.NewDataset(rows, 2*cards)
	deck := make([]int, 52)
	for i := range deck {
		deck[i] = i
	}
	for i := 0; i < rows; i++ {
		// Partial Fisher–Yates: the first five entries become the hand.
		for j := 0; j < cards; j++ {
			k := j + r.Intn(52-j)
			deck[j], deck[k] = deck[k], deck[j]
		}
		p := ds.At(i)
		for j := 0; j < cards; j++ {
			card := deck[j]
			p[2*j] = float64(card/13 + 1)   // suit 1..4
			p[2*j+1] = float64(card%13 + 1) // rank 1..13
		}
	}
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = -1
	}
	return &Labeled{Points: ds, Labels: labels, Name: "POKER-like(n=25010,d=10)"}
}

// KDDLikeConfig parameterizes the KDD Cup 1999 stand-in.
type KDDLikeConfig struct {
	N    int // number of rows; the paper's 10% sample has ~494k
	Seed uint64
}

// KDDLike generates a numeric data set with the geometry of the KDD Cup 1999
// 10% sample that drives Figure 1: a handful of enormous, tight clusters
// (the smurf/neptune attack floods) holding >75% of the mass, feature scales
// spanning many orders of magnitude (byte counts vs. rates vs. flags), and a
// thin spray of extreme outliers. The k-center objective on such data
// plateaus over k at very large values (1e4–1e9 in Figure 1) because a few
// far-flung outliers dominate the radius — exactly the regime in which the
// paper reports EIM behaving poorly.
func KDDLike(c KDDLikeConfig) *Labeled {
	if c.N == 0 {
		c.N = 494021
	}
	const dim = 38 // numeric features of the KDD set
	r := rng.New(c.Seed)

	// Cluster prototypes: two dominant flood clusters, a normal-traffic
	// cluster, and a tail of small attack families. Feature scales are
	// log-normal so some coordinates are O(1e8) (byte counters) and others
	// O(1) (rates/flags), mirroring the raw UCI features.
	type proto struct {
		weight float64
		center []float64
		spread []float64
	}
	newProto := func(weight, scaleMu float64) proto {
		center := make([]float64, dim)
		spread := make([]float64, dim)
		for j := 0; j < dim; j++ {
			// A third of features are huge counters, a third medium, a third
			// unit-scale rates; assignment fixed by j so all prototypes share
			// per-feature units, like real columns do.
			var unit float64
			switch j % 3 {
			case 0:
				unit = r.LogNormal(scaleMu, 1.5) // counter-like
			case 1:
				unit = r.LogNormal(2, 1) // medium
			default:
				unit = r.Float64() // rate-like, [0,1)
			}
			center[j] = unit
			spread[j] = unit * 0.001 // floods are near-duplicates
		}
		return proto{weight: weight, center: center, spread: spread}
	}
	protos := []proto{
		newProto(0.57, 12), // smurf-like flood
		newProto(0.22, 10), // neptune-like flood
		newProto(0.19, 6),  // normal traffic (looser)
	}
	protos[2].spread = scaleSlice(protos[2].center, 0.05)
	// Small attack families.
	rest := 0.02
	for i := 0; i < 8; i++ {
		protos = append(protos, newProto(rest/8, 4+3*r.Float64()))
	}
	cum := make([]float64, len(protos))
	s := 0.0
	for i, p := range protos {
		s += p.weight
		cum[i] = s
	}

	ds := metric.NewDataset(c.N, dim)
	labels := make([]int, c.N)
	nOutliers := c.N / 2000 // ~0.05% extreme rows
	for i := 0; i < c.N; i++ {
		p := ds.At(i)
		if i < nOutliers {
			// Extreme outliers: gigantic isolated byte counts.
			for j := range p {
				if j%3 == 0 {
					p[j] = r.LogNormal(18+2*r.Float64(), 1)
				} else {
					p[j] = r.Float64() * 100
				}
			}
			labels[i] = -1
			continue
		}
		u := r.Float64() * s
		cl := 0
		for cum[cl] < u {
			cl++
		}
		pr := protos[cl]
		for j := range p {
			p[j] = pr.center[j] + r.NormFloat64()*pr.spread[j]
			if p[j] < 0 {
				p[j] = 0
			}
		}
		labels[i] = cl
	}
	return &Labeled{Points: ds, Labels: labels, Name: fmt.Sprintf("KDD-like(n=%d,d=%d)", c.N, dim)}
}

func scaleSlice(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

// LoadCSVOptions controls LoadCSV.
type LoadCSVOptions struct {
	// Comma is the field separator; ',' when zero.
	Comma rune
	// SkipHeader drops the first line.
	SkipHeader bool
	// Columns selects which zero-based columns to keep; nil keeps every
	// column that parses as a number in the first data row. With Columns
	// nil and SkipHeader off, a first line with no numeric field is taken
	// for a header and skipped.
	Columns []int
	// MaxRows limits how many rows are read; 0 means unlimited.
	MaxRows int
	// IgnoreParseErrors replaces unparseable and non-finite fields with 0
	// instead of failing; non-numeric symbolic columns (e.g. KDD's protocol
	// field) are typically excluded via Columns instead.
	IgnoreParseErrors bool
}

// ForEachCSVRow reads UCI-style comma-separated text row by row, calling fn
// with each parsed numeric row without materializing the matrix — the
// primitive behind both LoadCSV and the CLI's incremental streaming
// ingestion. The slice passed to fn is reused between calls; fn must copy
// what it keeps. Returns the number of rows delivered. A non-nil error from
// fn stops the scan and is returned verbatim. A value that parses but is not
// finite ("NaN", "Inf") is a parse error: it names its line and column, or
// reads as 0 under IgnoreParseErrors. A negative entry in Columns is an
// error naming it. A header line is detected as LoadCSVOptions describes.
//
// Each line is trimmed and split as strings.TrimSpace and strings.Split
// would, and each field parses as strconv.ParseFloat would, but in place
// on the scanner's bytes, so a row costs no allocation (ARCHITECTURE.md,
// "Loading").
func ForEachCSVRow(r io.Reader, opts LoadCSVOptions, fn func(row []float64) error) (int64, error) {
	if opts.Comma == 0 {
		opts.Comma = ','
	}
	for _, c := range opts.Columns {
		if c < 0 {
			return 0, fmt.Errorf("dataset: column %d is negative", c)
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var (
		sep     = []byte(string(opts.Comma))
		cols    = opts.Columns
		row     []float64
		fields  [][]byte
		lineNum int
		rows    int64
		header  = cols == nil && !opts.SkipHeader
	)
	for sc.Scan() {
		lineNum++
		if opts.SkipHeader && lineNum == 1 {
			continue
		}
		if fields = splitLine(fields[:0], sc.Bytes(), sep); len(fields) == 0 {
			continue
		}
		if cols == nil {
			// Autodetect numeric columns from the first data row.
			for i, f := range fields {
				if _, err := parseField(f); err == nil {
					cols = append(cols, i)
				}
			}
			if len(cols) == 0 && header {
				header = false // a header line: detect from the next line
				continue
			}
			if len(cols) == 0 {
				return rows, fmt.Errorf("dataset: line %d has no numeric columns", lineNum)
			}
		}
		if row == nil {
			row = make([]float64, len(cols))
		}
		for i, c := range cols {
			if c >= len(fields) {
				return rows, fmt.Errorf("dataset: line %d has %d fields, need column %d", lineNum, len(fields), c)
			}
			v, err := parseField(fields[c])
			if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
				err = fmt.Errorf("non-finite value %v", v)
			}
			if err != nil {
				if !opts.IgnoreParseErrors {
					return rows, fmt.Errorf("dataset: line %d column %d: %v", lineNum, c, err)
				}
				v = 0
			}
			row[i] = v
		}
		if err := fn(row); err != nil {
			return rows, err
		}
		rows++
		if opts.MaxRows > 0 && rows >= int64(opts.MaxRows) {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return rows, fmt.Errorf("dataset: read: %w", err)
	}
	if rows == 0 {
		return 0, fmt.Errorf("dataset: no data rows")
	}
	return rows, nil
}

// splitLine appends to dst the fields of line split on sep, each one
// trimmed, exactly as strings.Split(strings.TrimSpace(line), sep) with
// strings.TrimSpace on every field would, without allocating; a blank line
// yields none.
func splitLine(dst [][]byte, line, sep []byte) [][]byte {
	if line = bytes.TrimSpace(line); len(line) == 0 {
		return dst
	}
	for {
		f, rest, ok := bytes.Cut(line, sep)
		dst = append(dst, bytes.TrimSpace(f))
		if !ok {
			return dst
		}
		line = rest
	}
}

// LoadCSV reads a numeric matrix from UCI-style comma-separated text with
// ForEachCSVRow. It is how the real Poker Hand / KDD Cup files plug into the
// harness when the user has them on disk. The matrix grows by doubling its
// capacity, so growth copies fewer than two coordinates per coordinate
// loaded and leaves at most half the capacity spare.
func LoadCSV(r io.Reader, opts LoadCSVOptions) (*metric.Dataset, error) {
	var data []float64
	n, err := ForEachCSVRow(r, opts, func(row []float64) error {
		if len(row) == 0 {
			return fmt.Errorf("dataset: no columns selected")
		}
		if cap(data)-len(data) < len(row) {
			data = append(make([]float64, 0, max(2*cap(data), 1<<12, len(row))), data...)
		}
		data = append(data, row...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &metric.Dataset{Data: data, N: int(n), Dim: len(data) / int(n)}, nil
}

// WriteCSV writes the dataset as comma-separated text, the inverse of
// LoadCSV. Used by examples and round-trip tests.
func WriteCSV(w io.Writer, ds *metric.Dataset) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < ds.N; i++ {
		p := ds.At(i)
		for j, v := range p {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
