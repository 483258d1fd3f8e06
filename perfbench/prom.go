package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promHist is one Prometheus histogram series: cumulative bucket counts at
// ascending upper bounds (the last is +Inf), plus _sum and _count.
type promHist struct {
	bounds []float64
	cum    []float64
	sum    float64
	count  float64
}

// promScrape is the histograms of a parsed text exposition, keyed by series:
// the family name without its _bucket/_sum/_count suffix, plus the labels
// other than le, in exposition order.
type promScrape struct {
	hists map[string]*promHist
}

// seriesKey renders a series key: name{k="v",...}.
func seriesKey(name string, labels [][2]string) string {
	if len(labels) == 0 {
		return name
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l[0] + `="` + l[1] + `"`
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

// parseLabels splits `k="v",k2="v2"`; label values in this exposition carry
// no escaped quotes or commas.
func parseLabels(s string) ([][2]string, error) {
	var out [][2]string
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return nil, fmt.Errorf("bad labels %q", s)
		}
		end := strings.IndexByte(s[eq+2:], '"')
		if end < 0 {
			return nil, fmt.Errorf("unterminated label in %q", s)
		}
		out = append(out, [2]string{s[:eq], s[eq+2 : eq+2+end]})
		s = strings.TrimPrefix(s[eq+2+end+1:], ",")
	}
	return out, nil
}

// parseProm parses the histograms out of Prometheus text format 0.0.4.
func parseProm(text string) (*promScrape, error) {
	ps := &promScrape{hists: map[string]*promHist{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("bad sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %v", line, err)
		}
		name, labelText := line[:sp], ""
		if br := strings.IndexByte(name, '{'); br >= 0 {
			if !strings.HasSuffix(name, "}") {
				return nil, fmt.Errorf("bad series %q", name)
			}
			name, labelText = name[:br], name[br+1:len(name)-1]
		}
		labels, err := parseLabels(labelText)
		if err != nil {
			return nil, err
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			var le float64
			rest := labels[:0:0]
			found := false
			for _, l := range labels {
				if l[0] == "le" {
					if le, err = strconv.ParseFloat(l[1], 64); err != nil {
						return nil, fmt.Errorf("bad le in %q", line)
					}
					found = true
					continue
				}
				rest = append(rest, l)
			}
			if !found {
				return nil, fmt.Errorf("bucket without le: %q", line)
			}
			h := ps.hist(seriesKey(strings.TrimSuffix(name, "_bucket"), rest))
			h.bounds = append(h.bounds, le)
			h.cum = append(h.cum, v)
		case strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_count"):
			// A plain counter may end in _count too; only series with
			// buckets are histograms, which the pass below sorts out.
			base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
			h := ps.hist(seriesKey(base, labels))
			if strings.HasSuffix(name, "_sum") {
				h.sum = v
			} else {
				h.count = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for k, h := range ps.hists {
		if len(h.bounds) == 0 {
			delete(ps.hists, k)
			continue
		}
		if !sort.Float64sAreSorted(h.bounds) {
			return nil, fmt.Errorf("histogram %s buckets out of order", k)
		}
	}
	return ps, nil
}

func (ps *promScrape) hist(key string) *promHist {
	h := ps.hists[key]
	if h == nil {
		h = &promHist{}
		ps.hists[key] = h
	}
	return h
}

// diff returns after − before for one series: the observations recorded
// between the two scrapes. A series absent before counts from zero.
func diffHist(after, before *promHist) *promHist {
	d := &promHist{bounds: after.bounds, cum: append([]float64(nil), after.cum...), sum: after.sum, count: after.count}
	if before == nil {
		return d
	}
	for i := range d.cum {
		if i < len(before.cum) {
			d.cum[i] -= before.cum[i]
		}
	}
	d.sum -= before.sum
	d.count -= before.count
	return d
}

func (h *promHist) mean() float64 {
	if h == nil || h.count <= 0 {
		return 0
	}
	return h.sum / h.count
}

// quantile estimates the q-quantile (0 < q < 1) the way PromQL's
// histogram_quantile does: find the first bucket whose cumulative count
// reaches q·count and interpolate linearly inside it (from 0 for the first
// bucket). An answer in the +Inf bucket is clamped to the last finite
// bound. Empty histograms give 0.
func (h *promHist) quantile(q float64) float64 {
	if h == nil || h.count <= 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := q * h.count
	for i, c := range h.cum {
		if c < rank {
			continue
		}
		if math.IsInf(h.bounds[i], 1) {
			if i == 0 {
				return 0
			}
			return h.bounds[i-1]
		}
		lo, prev := 0.0, 0.0
		if i > 0 {
			lo, prev = h.bounds[i-1], h.cum[i-1]
		}
		if c == prev {
			return h.bounds[i]
		}
		return lo + (h.bounds[i]-lo)*(rank-prev)/(c-prev)
	}
	return h.bounds[len(h.bounds)-1]
}
