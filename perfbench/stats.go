package main

import (
	"math"
	"slices"
	"time"
)

// throughputCuts is the number of sub-windows whose median rate is
// reported as a throughput.
const throughputCuts = 40

// epoch anchors now: every timestamp in a run is monotonic nanoseconds
// since process start, so values stamped by one goroutine can be
// compared with clock reads of another.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// capFor sizes a sample buffer for a stream of about perSecond samples.
func capFor(perSecond float64, window time.Duration) int {
	return int(perSecond*window.Seconds()) + 1024
}

// setUp times n set-ups and returns their median in seconds and the
// live heap the last one added. reset drops the previous set-up,
// untimed; every set-up then starts from a settled heap.
func setUp(n int, reset func(), build func() error) (setupS float64, heapAdded int64, err error) {
	var times []float64
	var before int64
	for range n {
		reset()
		before = liveHeapBytes()
		t0 := now()
		if err := build(); err != nil {
			return 0, 0, err
		}
		times = append(times, seconds(now()-t0))
	}
	return median(times), liveHeapBytes() - before, nil
}

// samples is a fixed-capacity buffer of per-operation times in
// nanoseconds. Percentiles are computed exactly from it, never from
// bucketed histograms. Once full it drops further samples instead of
// growing, so recording never allocates inside a measurement window.
type samples struct{ ns []int64 }

func newSamples(capacity int) *samples { return &samples{ns: make([]int64, 0, capacity)} }

func (s *samples) add(ns int64) {
	if len(s.ns) < cap(s.ns) {
		s.ns = append(s.ns, ns)
	}
}

// dist is a sorted copy of a sample buffer.
type dist []int64

func (s *samples) dist() dist {
	d := slices.Clone(s.ns)
	slices.Sort(d)
	return d
}

// quantile returns the q-quantile; NaN when there are no samples.
// Clock readings are whole nanoseconds, so many samples tie; each value
// v is taken to stand for the interval [v-0.5, v+0.5) and the quantile
// is interpolated within it (the grouped-data median). A shift of the
// distribution inside one tick then still moves the result.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	target := q * float64(len(d))
	i := min(int(target), len(d)-1)
	v := d[i]
	lo, _ := slices.BinarySearch(d, v)
	hi, _ := slices.BinarySearch(d, v+1)
	return float64(v) - 0.5 + (target-float64(lo))/float64(hi-lo)
}

// tail returns the highest percentile up to p99 that leaves at least
// ten samples above it, with its value. Fewer samples give a lower
// percentile, never a p99 resting on one or two outliers.
func (d dist) tail() (pct, v float64) {
	q := 0.99
	if n := float64(len(d)); 1-10/n < q {
		q = max(0, 1-10/n)
	}
	return 100 * q, d.quantile(q)
}

// slicer counts operations per slice of the measurement window. A
// slice's rate is its operations over the time since the previous
// slice's last completion, so rates are not rounded to whole operations
// per slice. The reported rate is the median slice rate: a stall of the
// shared host moves one or two slices, not the whole figure.
type slicer struct {
	start, width int64
	counts       []uint64
	ends         []int64 // last completion in each slice
}

func newSlicer(start int64, window time.Duration, n int) *slicer {
	return &slicer{start: start, width: int64(window) / int64(n), counts: make([]uint64, n), ends: make([]int64, n)}
}

// add counts n operations completed at time at.
func (s *slicer) add(at int64, n uint64) {
	if i := (at - s.start) / s.width; i >= 0 && i < int64(len(s.counts)) {
		s.counts[i] += n
		s.ends[i] = at
	}
}

// rate is the median of the per-slice rates, in operations per second.
func (s *slicer) rate() float64 {
	rates := make([]float64, 0, len(s.counts))
	prev := s.start
	for i, c := range s.counts {
		if c == 0 {
			rates = append(rates, 0)
			continue
		}
		rates = append(rates, float64(c)*1e9/float64(s.ends[i]-prev))
		prev = s.ends[i]
	}
	return median(rates)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// share returns part/whole, or 0 when nothing was counted.
func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
