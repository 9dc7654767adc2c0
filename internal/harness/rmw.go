package harness

import (
	"fmt"
	"time"

	"arcreg/internal/workload"
)

// RunRMWComparison measures how many read-modify-write instructions
// each algorithm spends per read — the mechanism behind the paper's
// §1/§5 claim that ARC outperforms RF by avoiding RMW execution on reads
// of unchanged content. ARC, the fast-path-ablated ARC and RF run at
// every thread count their reader bound allows: RF issues exactly one
// RMW per read by construction; ARC's count falls with concurrency
// because more reads land on unchanged content (the scenario §5
// highlights).
//
// With writers > 0 the (M,N) composite's fresh-gated collect and its
// always-View ablation follow at M = writers, on the thread counts that
// leave a reader beside the writers (writers+1 when none does). Their
// ReadStats aggregate component RMW per composite read, so the rmw/read
// column compares directly with the (1,N) rows: a read-dominated steady
// state shows ~0 for the gated collect.
func RunRMWComparison(threads []int, writers, size int, duration, warmup time.Duration, progress func(done, total int, r Row)) (Report, error) {
	rep := Report{ID: "rmw", Caption: "RMW accounting",
		Params: fmt.Sprintf("register size %s, window %v", fmtSize(size), duration)}
	type cell struct {
		alg              Algorithm
		threads, writers int
	}
	var cells, mn []cell
	for _, th := range threads {
		for _, alg := range []Algorithm{AlgARC, AlgARCNoFast, AlgRF} {
			if th-1 <= alg.MaxReaders() {
				cells = append(cells, cell{alg, th, 1})
			}
		}
		if writers > 0 && th > writers {
			mn = append(mn, cell{AlgMN, th, writers}, cell{AlgMNNoGate, th, writers})
		}
	}
	if writers > 0 && len(mn) == 0 {
		mn = []cell{{AlgMN, writers + 1, writers}, {AlgMNNoGate, writers + 1, writers}}
	}
	cells = append(cells, mn...)
	err := rep.sweep(len(cells), progress, func(i int) (Row, error) {
		c := cells[i]
		res, err := Run(RunConfig{
			Algorithm: c.alg,
			Threads:   c.threads,
			Writers:   c.writers,
			ValueSize: size,
			Mode:      workload.Dummy,
			Duration:  duration,
			Warmup:    warmup,
		})
		if err != nil {
			return Row{}, fmt.Errorf("rmw experiment (%s, %d threads, M=%d): %w", c.alg, c.threads, c.writers, err)
		}
		// The protocol counters give both numerator and denominator:
		// they cover the same operations (warmup included), unlike the
		// measured-window op counts.
		rd, wr := res.ReadStat, res.WriteStat
		return Row{
			Tags: []Field{
				text("algorithm", "algorithm", string(c.alg)),
				text("waitfree", "waitfree", c.alg.WaitFreeLabel()),
				num("threads", "threads", "count", c.threads),
				num("writers", "M", "count", c.writers),
			},
			Metrics: []Field{
				num("reads", "reads", "count", rd.Ops),
				num("read_rmw", "", "count", rd.RMW),
				num("read_fastpath", "", "count", rd.FastPath),
				num("writes", "", "count", wr.Ops),
				num("write_rmw", "", "count", wr.RMW),
				num("rmw_per_read", "rmw/read", "ratio", ratio(rd.RMW, rd.Ops)),
				num("fastpath_pct", "fastpath%", "%", 100*ratio(rd.FastPath, rd.Ops)),
				num("rmw_per_write", "rmw/write", "ratio", ratio(wr.RMW, wr.Ops)),
			},
		}, nil
	})
	return rep, err
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
