package harness

import (
	"fmt"
	"time"

	"arcreg/internal/workload"
)

// RunLatencyComparison samples per-operation read and write latency
// quantiles for the given algorithms under the standard deployment, one
// row each; algorithms whose reader bound the thread count exceeds are
// left out. The paper reports throughput only; tail latency is the
// supplementary view that exposes seqlock's unbounded read retries and
// the lock/Left-Right writer stalls that aggregate throughput hides.
// AlgMap rows run the keyed store through its single-key adapter, so
// its directory-probe-then-value-read path is held to the same
// tail-latency scrutiny as the raw algorithms. Sampling records every
// 64th operation so the clock reads stay out of the measured contention
// path.
func RunLatencyComparison(algs []Algorithm, threads, size int, stealFrac float64, duration, warmup time.Duration, progress func(done, total int, r Row)) (Report, error) {
	rep := Report{ID: "latency", Caption: "per-operation latency",
		Params: fmt.Sprintf("size %s, steal %.0f%%, window %v", fmtSize(size), stealFrac*100, duration)}
	var feasible []Algorithm
	for _, alg := range algs {
		if threads-1 <= alg.MaxReaders() {
			feasible = append(feasible, alg)
		}
	}
	err := rep.sweep(len(feasible), progress, func(i int) (Row, error) {
		alg := feasible[i]
		res, err := Run(RunConfig{
			Algorithm:     alg,
			Threads:       threads,
			ValueSize:     size,
			Mode:          workload.Dummy,
			Duration:      duration,
			Warmup:        warmup,
			StealFraction: stealFrac,
			LatencySample: 64,
		})
		if err != nil {
			return Row{}, fmt.Errorf("latency experiment (%s): %w", alg, err)
		}
		return Row{
			Tags: []Field{
				text("algorithm", "algorithm", string(alg)),
				text("waitfree", "waitfree", alg.WaitFreeLabel()),
				num("threads", "threads", "count", threads),
			},
			Metrics: []Field{
				num("read_p50_ns", "read p50", "ns", res.ReadLat.Quantile(0.5)),
				num("read_p99_ns", "read p99", "ns", res.ReadLat.Quantile(0.99)),
				num("read_max_ns", "read max", "ns", res.ReadLat.Max()),
				num("write_p50_ns", "write p50", "ns", res.WriteLat.Quantile(0.5)),
				num("write_p99_ns", "write p99", "ns", res.WriteLat.Quantile(0.99)),
				num("write_max_ns", "write max", "ns", res.WriteLat.Max()),
				num("read_samples", "", "count", res.ReadLat.Count()),
				num("write_samples", "", "count", res.WriteLat.Count()),
			},
		}, nil
	})
	return rep, err
}
