package main

import (
	"fmt"
	"io"
	"sort"

	"pragmaprim/internal/obs"
	"pragmaprim/internal/stats"
)

// tailPercentiles are the candidates tailPercentile picks from, ascending,
// each with the share of samples beyond it as 1/beyond (integers, so the
// ten-sample test is exact).
var tailPercentiles = []struct {
	p      float64
	beyond int64
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}, {99.999, 100000}}

// tailPercentile returns the highest candidate percentile that still has at
// least ten samples beyond it among n samples, or 0 when even the median
// has fewer (n < 20). A percentile with fewer samples past it is one
// outlier away from a different number, so it is not reported.
func tailPercentile(n int64) float64 {
	best := 0.0
	for _, c := range tailPercentiles {
		if n >= 10*c.beyond {
			best = c.p
		}
	}
	return best
}

// tally counts the acknowledged operations that changed the container's
// size. Prefill counts the acked SET(true) replies of the prefill phase;
// SetTrue and DelTrue those of every later phase.
type tally struct {
	Prefill, SetTrue, DelTrue int64
}

func (t *tally) add(o tally) {
	t.Prefill += o.Prefill
	t.SetTrue += o.SetTrue
	t.DelTrue += o.DelTrue
}

// expected is the size conservation predicts.
func (t tally) expected() int64 { return t.Prefill + t.SetTrue - t.DelTrue }

// checkConservation compares a size the server reported with the one the
// acknowledgements predict. what names the observation for the message.
func checkConservation(t tally, size int64, what string) error {
	if want := t.expected(); size != want {
		return fmt.Errorf("conservation: %s is %d, want prefill %d + acked SET(true) %d - acked DEL(true) %d = %d",
			what, size, t.Prefill, t.SetTrue, t.DelTrue, want)
	}
	return nil
}

// promSnap is one parsed /metrics?format=prom scrape.
type promSnap map[string]*obs.Family

func parseSnap(r io.Reader) (promSnap, error) {
	fams, err := obs.ParseProm(r)
	return promSnap(fams), err
}

// total sums every sample of a counter or gauge family across its label
// sets; 0 when the family is absent (the WAL families exist only on a
// durable server).
func (s promSnap) total(name string) float64 {
	f := s[name]
	if f == nil {
		return 0
	}
	sum := 0.0
	for _, smp := range f.Samples {
		if smp.Name == name {
			sum += smp.Value
		}
	}
	return sum
}

// counterDelta is after − before of a (label-summed) counter family.
func counterDelta(before, after promSnap, name string) float64 {
	return after.total(name) - before.total(name)
}

// histDelta rebuilds the histogram of the observations recorded between
// two scrapes, summed over the given label sets (nil for an unlabelled
// family). A family absent from both scrapes yields an empty histogram.
func histDelta(before, after promSnap, name string, labelSets ...map[string]string) (*stats.Histogram, error) {
	if len(labelSets) == 0 {
		labelSets = []map[string]string{nil}
	}
	out := &stats.Histogram{}
	if after[name] == nil {
		return out, nil
	}
	top := -1
	for _, ls := range labelSets {
		a, err := after[name].Hist(ls)
		if err != nil {
			return nil, err
		}
		b := &stats.Histogram{}
		if before[name] != nil {
			if b, err = before[name].Hist(ls); err != nil {
				return nil, err
			}
		}
		for i := 0; i < stats.Buckets; i++ {
			d := a.BucketCount(i) - b.BucketCount(i)
			if d < 0 {
				return nil, fmt.Errorf("hist %s%v: bucket %d went from %d to %d between scrapes",
					name, ls, i, b.BucketCount(i), a.BucketCount(i))
			}
			if d > 0 {
				out.AddBucket(i, d)
				top = max(top, i)
			}
		}
	}
	if top >= 0 {
		// Quantile clamps to the recorded maximum; bound it by the top
		// bucket so quantiles read the bucket values.
		out.ObserveMax(stats.BucketUpper(top))
	}
	return out, nil
}

// ratio is num/den, 0 when den is 0 (a layer the workload does not reach).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile returns the p-th percentile (0 < p < 100) of h, interpolated
// linearly inside the bucket that holds the rank, so it moves with the
// data instead of snapping to bucket midpoints. 0 when h is empty.
func quantile(h *stats.Histogram, p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := p / 100 * float64(n) // observations strictly below the answer
	var seen int64
	for i := 0; i < stats.Buckets; i++ {
		c := h.BucketCount(i)
		if c == 0 || float64(seen+c) < rank {
			seen += c
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = float64(stats.BucketUpper(i-1) + 1)
		}
		width := float64(stats.BucketUpper(i)) + 1 - lo
		return lo + width*(rank-float64(seen))/float64(c)
	}
	return float64(h.Max())
}

// median of xs; xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
