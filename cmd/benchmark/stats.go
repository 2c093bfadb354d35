package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (q in [0, 1]); 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqr is the distance between the first and third quartiles.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

// geomean is the geometric mean of the positive values in xs (0 when
// there are none).
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// samples groups per-key measurements, keyed in insertion order so
// reports iterate deterministically.
type samples struct {
	keys []string
	vals map[string][]float64
}

// newSamples returns an empty set whose keys start with the given ones.
func newSamples(keys ...string) *samples {
	s := &samples{vals: map[string][]float64{}}
	for _, k := range keys {
		s.keys = append(s.keys, k)
		s.vals[k] = nil
	}
	return s
}

func (s *samples) add(key string, v float64) {
	if _, ok := s.vals[key]; !ok {
		s.keys = append(s.keys, key)
	}
	s.vals[key] = append(s.vals[key], v)
}

// quantiles returns each key's q-quantile, in key order.
func (s *samples) quantiles(q float64) []float64 {
	out := make([]float64, 0, len(s.keys))
	for _, k := range s.keys {
		out = append(out, quantile(s.vals[k], q))
	}
	return out
}

// all returns every value, in key order.
func (s *samples) all() []float64 {
	var out []float64
	for _, k := range s.keys {
		out = append(out, s.vals[k]...)
	}
	return out
}

// medianSum is the sum over keys of each key's median.
func (s *samples) medianSum() float64 {
	t := 0.0
	for _, m := range s.quantiles(0.5) {
		t += m
	}
	return t
}
