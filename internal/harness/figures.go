package harness

import (
	"fmt"
	"strings"
	"time"

	"arcreg/internal/workload"
)

// Sizes swept by the paper's figures: 4KB, 32KB, 128KB.
var (
	PaperSizes = []int{4 * 1024, 32 * 1024, 128 * 1024}

	// Fig1Threads is the thread sweep on the 32-core physical machine.
	Fig1Threads = []int{2, 4, 8, 16, 24, 32}
	// Fig2Threads extends to the 40-vCPU virtualized host.
	Fig2Threads = []int{2, 4, 8, 16, 24, 32, 40}
	// Fig3Threads is the oversubscribed sweep (log-scale x in the paper).
	Fig3Threads = []int{1000, 1500, 2000, 2500, 3000, 3500, 4000}
)

// Figure describes one reproducible experiment family — one paper figure
// (or ablation table).
type Figure struct {
	// ID names the experiment ("fig1", "fig2", "fig3", …).
	ID string
	// Caption mirrors the paper's figure caption.
	Caption string
	// Algorithms are the compared register implementations, in column
	// order.
	Algorithms []Algorithm
	// Threads and Sizes span the sweep.
	Threads []int
	Sizes   []int
	// Writers is the writer-thread count per cell (0 = 1 writer, the
	// paper's (1,N) shape). The MN figure sets it to M; cells whose
	// thread count leaves no reader are recorded as infeasible.
	Writers int
	// WriterCounts optionally turns the writer count into a sweep axis:
	// every (size, threads, algorithm) cell is measured once per M, with
	// rows labeled by M (`arcbench -figure mn -writers 1,2,4,8`). Empty
	// means the single count in Writers.
	WriterCounts []int
	// Mode is the workload variant.
	Mode workload.Mode
	// StealFraction > 0 simulates the virtualized host.
	StealFraction float64
	// Pin requests CPU pinning in the physical regime.
	Pin bool
	// Duration and Warmup apply to every cell.
	Duration time.Duration
	Warmup   time.Duration
	// Seed fixes the steal schedules.
	Seed uint64
}

// Fig1 is Figure 1: throughput vs threads at each register size on the
// physical machine (no steal, pinned, dummy workload).
func Fig1() Figure {
	return Figure{
		ID:         "fig1",
		Caption:    "Throughput with different register size values (physical machine)",
		Algorithms: Algorithms(),
		Threads:    Fig1Threads,
		Sizes:      PaperSizes,
		Mode:       workload.Dummy,
		Pin:        true,
		Duration:   time.Second,
		Warmup:     200 * time.Millisecond,
		Seed:       1,
	}
}

// Fig2 is Figure 2: the same sweep on the simulated virtualized host
// (CPU-steal injection enabled, no pinning — vCPUs float).
func Fig2() Figure {
	return Figure{
		ID:            "fig2",
		Caption:       "Throughput with different register size values (virtualized host, CPU steal)",
		Algorithms:    Algorithms(),
		Threads:       Fig2Threads,
		Sizes:         PaperSizes,
		Mode:          workload.Dummy,
		StealFraction: 0.25,
		Duration:      time.Second,
		Warmup:        200 * time.Millisecond,
		Seed:          2,
	}
}

// Fig3 is Figure 3: heavily oversubscribed thread counts. RF is excluded
// — its 58-reader limit cannot host the sweep (§5: "RF could not be
// tested").
func Fig3() Figure {
	return Figure{
		ID:         "fig3",
		Caption:    "Throughput with largely-increased thread counts (time-sharing)",
		Algorithms: []Algorithm{AlgARC, AlgPeterson, AlgLock},
		Threads:    Fig3Threads,
		Sizes:      PaperSizes,
		Mode:       workload.Dummy,
		Duration:   time.Second,
		Warmup:     200 * time.Millisecond,
		Seed:       3,
	}
}

// FigProcessing is the paper's second experiment set: operations with
// attached processing latency (write generates data, read scans the
// buffer).
func FigProcessing() Figure {
	f := Fig1()
	f.ID = "processing"
	f.Caption = "Throughput with per-operation processing attached (physical machine)"
	f.Mode = workload.Processing
	return f
}

// FigAblation compares ARC against its own ablated variants, isolating
// the fast-path (R1–R2) and free-slot-hint (§3.4) optimizations.
func FigAblation() Figure {
	f := Fig1()
	f.ID = "ablation"
	f.Caption = "ARC ablations: fast path and free-slot hint contributions"
	f.Algorithms = []Algorithm{AlgARC, AlgARCNoFast, AlgARCNoHint}
	f.Sizes = []int{4 * 1024, 32 * 1024}
	return f
}

// FigExtensions compares ARC against the two modern non-paper baselines,
// seqlock (lock-free reads) and Left-Right (blocking writes), on the
// Figure 1 sweep. It extends the paper's comparison to the design points
// practitioners actually deploy today.
func FigExtensions() Figure {
	f := Fig1()
	f.ID = "extensions"
	f.Caption = "ARC vs seqlock and Left-Right (extension baselines)"
	f.Algorithms = []Algorithm{AlgARC, AlgSeqlock, AlgLeftRight}
	return f
}

// FigMN is the (M,N) composite experiment: a thread sweep at M=4 writers
// comparing the freshness-gated collect against its always-View ablation.
// The gated collect serves unchanged components from the per-handle cache
// (one atomic load each — one load total once the epoch gate validates —
// zero RMW, zero tag decoding), so its advantage grows with the read
// share of the workload; the ablation is the pre-optimization collect
// that performs M full ARC reads per scan. Setting WriterCounts (CLI:
// `-figure mn -writers 1,2,4,8`) sweeps M as an extra axis, with rows
// labeled by M.
func FigMN() Figure {
	return Figure{
		ID:         "mn",
		Caption:    "(M,N) composite: fresh-gated collect vs always-View ablation (M=4 writers)",
		Algorithms: []Algorithm{AlgMN, AlgMNNoGate},
		Threads:    []int{6, 8, 16, 32},
		Sizes:      []int{4 * 1024, 32 * 1024},
		Writers:    4,
		Mode:       workload.Dummy,
		Duration:   time.Second,
		Warmup:     200 * time.Millisecond,
		Seed:       4,
	}
}

// FigureIDs lists every figure arcbench regenerates, in the order
// `-figure all` runs them.
var FigureIDs = []string{"fig1", "fig2", "fig3", "processing", "ablation", "extensions", "mn", "map", "rmw", "latency", "watch", "serve"}

// FigureByID resolves the id of a register sweep (fig1 to mn; 1, 2 and
// 3 alias the paper's figures). The other FigureIDs have runners of
// their own.
func FigureByID(id string) (Figure, error) {
	switch id {
	case "fig1", "1":
		return Fig1(), nil
	case "fig2", "2":
		return Fig2(), nil
	case "fig3", "3":
		return Fig3(), nil
	case "processing":
		return FigProcessing(), nil
	case "ablation":
		return FigAblation(), nil
	case "extensions":
		return FigExtensions(), nil
	case "mn":
		return FigMN(), nil
	}
	return Figure{}, fmt.Errorf("harness: unknown figure %q (want %s)", id, strings.Join(FigureIDs, "|"))
}

// Scale shrinks a figure for smoke tests and CI: thread counts are capped,
// the sweep is thinned, and the timing windows reduced.
func (f Figure) Scale(maxThreads int, duration, warmup time.Duration) Figure {
	if maxThreads > 0 {
		var th []int
		for _, t := range f.Threads {
			if t <= maxThreads {
				th = append(th, t)
			}
		}
		if len(th) == 0 {
			th = []int{min(maxThreads, 2)}
			if maxThreads >= 2 {
				th = []int{maxThreads}
			}
		}
		f.Threads = th
	}
	if duration > 0 {
		f.Duration = duration
	}
	if warmup > 0 {
		f.Warmup = warmup
	}
	return f
}

// writerCounts resolves the writer sweep: WriterCounts when set, else
// the single Writers value (0 = the paper's 1-writer shape).
func (f Figure) writerCounts() []int {
	if len(f.WriterCounts) > 0 {
		return f.WriterCounts
	}
	w := f.Writers
	if w == 0 {
		w = 1
	}
	return []int{w}
}

// Run measures every cell of the figure into a grid report: one panel
// per register size, one line per thread count (and M when swept), one
// column per algorithm, Mops/s in each cell. Infeasible cells (reader
// counts beyond an algorithm's limit) are recorded with an error rather
// than aborting, mirroring the paper's "RF could not be tested" note.
func (f Figure) Run(progress func(done, total int, r Row)) (Report, error) {
	wcs := f.writerCounts()
	rep := Report{ID: f.ID, Caption: f.Caption,
		Params: fmt.Sprintf("mode=%s writers=%s steal=%.0f%% duration=%v",
			f.Mode, strings.Trim(strings.ReplaceAll(fmt.Sprint(wcs), " ", ","), "[]"), f.StealFraction*100, f.Duration),
		Grid: &Grid{Across: "algorithm"},
	}
	for _, size := range f.Sizes {
		rep.Grid.Sections = append(rep.Grid.Sections,
			Section{Title: "register size " + fmtSize(size), Tag: "size", Value: float64(size), Metric: "mops"})
	}
	// The M column shows only when the writer count is swept.
	mLabel := ""
	if len(wcs) > 1 {
		mLabel = "M"
	}
	type cell struct {
		alg                    Algorithm
		size, writers, threads int
	}
	var cells []cell
	for _, size := range f.Sizes {
		for _, writers := range wcs {
			for _, th := range f.Threads {
				for _, alg := range f.Algorithms {
					cells = append(cells, cell{alg, size, writers, th})
				}
			}
		}
	}
	err := rep.sweep(len(cells), progress, func(i int) (Row, error) {
		c := cells[i]
		row := Row{Tags: []Field{
			num("size", "", "B", c.size),
			num("threads", "threads", "count", c.threads),
			text("algorithm", "algorithm", string(c.alg)),
			num("writers", mLabel, "count", c.writers),
		}}
		switch {
		case c.writers > 1 && !c.alg.IsMN():
			row.Err = fmt.Errorf("%s is a (1,N) register; %d writers need mn", c.alg, c.writers)
		case c.threads-c.writers > c.alg.MaxReaders():
			row.Err = fmt.Errorf("%d readers exceed %s limit %d", c.threads-c.writers, c.alg, c.alg.MaxReaders())
		case c.threads < c.writers+1:
			row.Err = fmt.Errorf("%d threads leave no reader beside %d writers", c.threads, c.writers)
		default:
			res, err := Run(RunConfig{
				Algorithm:     c.alg,
				Threads:       c.threads,
				Writers:       c.writers,
				ValueSize:     c.size,
				Mode:          f.Mode,
				Duration:      f.Duration,
				Warmup:        f.Warmup,
				StealFraction: f.StealFraction,
				Pin:           f.Pin,
				Seed:          f.Seed,
			})
			if err != nil {
				return row, fmt.Errorf("figure %s (%s, %d threads, M=%d, %dB): %w",
					f.ID, c.alg, c.threads, c.writers, c.size, err)
			}
			row.Metrics = []Field{
				num("mops", "mops", "Mops/s", res.Mops()),
				num("read_ops", "", "count", res.ReadOps),
				num("write_ops", "", "count", res.WriteOps),
				num("read_rmw", "", "count", res.ReadStat.RMW),
				num("read_fastpath", "", "count", res.ReadStat.FastPath),
				num("write_scan_steps", "", "count", res.WriteStat.ScanSteps),
				num("hint_hits", "", "count", res.WriteStat.HintHits),
				num("steal_events", "", "count", res.Steal.Steals),
			}
		}
		return row, nil
	})
	return rep, err
}

func fmtSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
