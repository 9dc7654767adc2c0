// Command arcbench regenerates the ARC paper's evaluation (§5, Figures
// 1–3, the RMW-per-read claim) plus the ablation, extension-baseline,
// (M,N), keyed-map, latency, wakeup and serving experiments on the
// local machine.
//
// Regenerate a figure by id. The ids are harness.FigureIDs, which -h
// lists and `-figure all` runs in order:
//
//	arcbench -figure fig1            # one grid per register size, the series the paper plots
//	arcbench -figure fig2            # virtualized host: CPU-steal simulation
//	arcbench -figure rmw             # RMW instructions per read, ARC vs RF vs (M,N)
//	arcbench -figure serve           # HTTP loopback: GET req/s + publish→observe latency
//	arcbench -figure all -csv out.csv
//
// Sweeps can be overridden (-threads, -sizes, -duration, -steal,
// -writers) and shrunk for smoke runs (-quick); explicit -threads/-sizes
// overrides win over the -quick caps. A single deployment can be
// measured directly:
//
//	arcbench -alg arc -threads 16 -size 32768 -duration 2s
//	arcbench -alg mn -writers 4 -nthreads 8 -size 4096
//
// Tables go to stdout and progress lines to stderr; -csv appends every
// figure's rows to a file, each figure under its own header line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"arcreg/internal/harness"
	"arcreg/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "arcbench:", err)
		os.Exit(1)
	}
}

// opts is the parsed command line.
type opts struct {
	figure, alg, mode, csv                               string
	threads, sizes, writers, keys, watchers, clients     ints
	size, nthreads, latency, shards, delEvery, snapEvery int
	fanArity, fanDepth                                   int
	duration, warmup, pubEvery                           time.Duration
	steal, zipf                                          float64
	quick                                                bool
}

func run(args []string, out io.Writer) error {
	var o opts
	fs := flag.NewFlagSet("arcbench", flag.ContinueOnError)
	fs.StringVar(&o.figure, "figure", "", "figure to regenerate: "+strings.Join(harness.FigureIDs, "|")+"|all")
	fs.StringVar(&o.alg, "alg", "arc", "algorithm for single runs: "+harness.AlgorithmNames())
	fs.Var(&o.threads, "threads", "comma-separated thread `counts` (overrides the figure's sweep)")
	fs.Var(&o.sizes, "sizes", "comma-separated register `sizes` in bytes (overrides the sweep)")
	fs.IntVar(&o.size, "size", 4096, "register size for single runs")
	fs.IntVar(&o.nthreads, "nthreads", 4, "thread count for single runs (writers + readers)")
	fs.Var(&o.writers, "writers", "writer thread `count(s)`: one value for single runs, a comma list sweeps M on the mn figure (e.g. 1,2,4,8)")
	fs.StringVar(&o.mode, "mode", "dummy", "workload: dummy|processing")
	fs.DurationVar(&o.duration, "duration", time.Second, "measurement window per cell")
	fs.DurationVar(&o.warmup, "warmup", 200*time.Millisecond, "warmup before each window")
	fs.Float64Var(&o.steal, "steal", -1, "CPU-steal fraction override (0..0.9; -1 keeps the figure default)")
	fs.BoolVar(&o.quick, "quick", false, "shrink sweeps and windows for a smoke run")
	fs.StringVar(&o.csv, "csv", "", "also append CSV rows to this file")
	fs.IntVar(&o.latency, "latency-sample", 0, "record every Nth op latency in single runs (0=off)")
	fs.Var(&o.keys, "keys", "comma-separated key `counts` for the map figure (overrides the sweep)")
	fs.Float64Var(&o.zipf, "zipf", -1, "map figure key-popularity Zipf exponent (≤1 uniform; -1 keeps the default)")
	fs.IntVar(&o.shards, "shards", 0, "map figure shard count (0 keeps the default)")
	fs.IntVar(&o.delEvery, "delete-every", -1, "map figure delete-mix: every Nth writer op deletes/re-creates a lifecycle key (0 disables; -1 keeps the default)")
	fs.IntVar(&o.snapEvery, "snapshot-every", -1, "map figure snapshot mix: every Nth reader op takes a multi-key Snapshot (0 disables; -1 keeps the default)")
	fs.Var(&o.watchers, "watchers", "comma-separated watcher `counts` for the watch figure, k suffix = thousands (e.g. 1k,10k; overrides the sweep)")
	fs.Var(&o.clients, "clients", "comma-separated HTTP client `counts` for the serve figure (overrides the sweep)")
	fs.DurationVar(&o.pubEvery, "publish-every", 0, "watch figure writer cadence (0 keeps the default)")
	fs.IntVar(&o.fanArity, "fan-arity", -1, "watch figure wakeup-tree arity (0 drops the tree series; -1 keeps the default)")
	fs.IntVar(&o.fanDepth, "fan-depth", -1, "watch figure wakeup-tree depth (-1 keeps the default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Fprintf(out, "arcbench: GOMAXPROCS=%d NumCPU=%d\n\n", runtime.GOMAXPROCS(0), runtime.NumCPU())

	if o.figure == "" {
		return singleRun(out, &o)
	}
	ids := []string{o.figure}
	if o.figure == "all" {
		ids = harness.FigureIDs
	}
	var csv *os.File
	if o.csv != "" {
		f, err := os.OpenFile(o.csv, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		csv = f
	}
	for _, id := range ids {
		rep, err := figure(id, &o, func(done, total int, r harness.Row) {
			fmt.Fprintf(os.Stderr, "[%s %d/%d] %s\n", id, done, total, r)
		})
		if err != nil {
			return err
		}
		rep.RenderTable(out)
		if csv != nil {
			rep.RenderCSV(csv)
		}
	}
	return nil
}

// figure runs one figure id under the command line's overrides.
func figure(id string, o *opts, progress func(done, total int, r harness.Row)) (harness.Report, error) {
	switch id {
	case "rmw":
		th := o.threads
		if len(th) == 0 {
			th = []int{2, 4, 8, 16, 32}
			if o.quick {
				th = []int{2, 4}
			}
		}
		// The (M,N) rows run at the mn figure's M unless -writers says
		// otherwise.
		writers := harness.FigMN().Writers
		if len(o.writers) > 0 && o.writers[0] > 0 {
			writers = o.writers[0]
		}
		d, w := o.window(200 * time.Millisecond)
		return harness.RunRMWComparison(th, writers, o.size, d, w, progress)
	case "latency":
		d, w := o.window(200 * time.Millisecond)
		algs := []harness.Algorithm{
			harness.AlgARC, harness.AlgRF, harness.AlgPeterson,
			harness.AlgLock, harness.AlgSeqlock, harness.AlgLeftRight,
			// The keyed store, measured through its single-key adapter (the
			// full directory-probe-then-value-read path), so map tail
			// latency is tracked alongside the raw algorithms.
			harness.AlgMap,
		}
		return harness.RunLatencyComparison(algs, o.nthreads, o.size, max(o.steal, 0), d, w, progress)
	case "map":
		// The map figure: thread sweep × key-count sweep, Zipf key
		// popularity, with optional delete-mix (-delete-every) and
		// snapshot (-snapshot-every) workloads.
		fig := harness.FigMap()
		m, err := workload.ParseMode(o.mode)
		if err != nil {
			return harness.Report{}, err
		}
		fig.Mode = m
		if o.shards > 0 {
			fig.Shards = o.shards
		}
		if o.delEvery >= 0 {
			fig.DeleteEvery = o.delEvery
		}
		if o.snapEvery >= 0 {
			fig.SnapshotEvery = o.snapEvery
		}
		if o.zipf >= 0 {
			fig.Zipf = o.zipf
		}
		if o.steal >= 0 {
			fig.StealFraction = o.steal
		}
		oneSize(id, o.sizes, &fig.ValueSize)
		fig.Duration, fig.Warmup = o.window(200 * time.Millisecond)
		if o.quick {
			fig = fig.Scale(2*runtime.NumCPU(), 0, 0)
		}
		set(&fig.Threads, o.threads)
		set(&fig.Keys, o.keys)
		return fig.Run(progress)
	case "watch":
		// The wakeup-latency figure: parked watchers vs fixed-interval
		// pollers over watcher counts (DESIGN.md §8).
		fig := harness.FigWatch()
		if o.pubEvery > 0 {
			fig.PublishEvery = o.pubEvery
		}
		if o.fanArity >= 0 {
			fig.FanArity = o.fanArity
		}
		if o.fanDepth >= 0 {
			fig.FanDepth = o.fanDepth
		}
		oneSize(id, o.sizes, &fig.ValueSize)
		fig.Duration, fig.Warmup = o.window(200 * time.Millisecond)
		if o.quick {
			fig = fig.Scale(4, 0, 0)
		}
		set(&fig.Watchers, o.watchers)
		return fig.Run(progress)
	case "serve":
		// The HTTP serving figure: a real arcserve server on a loopback
		// listener over GET client counts (DESIGN.md §11).
		fig := harness.FigServe()
		if o.pubEvery > 0 {
			fig.PublishEvery = o.pubEvery
		}
		oneSize(id, o.sizes, &fig.ValueSize)
		fig.Duration, fig.Warmup = o.window(300 * time.Millisecond)
		if o.quick {
			fig = fig.Scale(2*runtime.NumCPU(), 0, 0)
		}
		set(&fig.Clients, o.clients)
		return fig.Run(progress)
	}
	fig, err := harness.FigureByID(id)
	if err != nil {
		return harness.Report{}, err
	}
	return customize(fig, o).Run(progress)
}

// window is the per-cell measurement window and warmup: -duration and
// -warmup, capped under -quick at quickDur and 50ms.
func (o *opts) window(quickDur time.Duration) (duration, warmup time.Duration) {
	if !o.quick {
		return o.duration, o.warmup
	}
	return min(o.duration, quickDur), min(o.warmup, 50*time.Millisecond)
}

// set replaces a figure's sweep with an explicit override, if any.
func set(sweep *[]int, override []int) {
	if len(override) > 0 {
		*sweep = override
	}
}

// oneSize applies -sizes to a figure that measures one value size per
// run: the first entry wins.
func oneSize(id string, sizes []int, size *int) {
	if len(sizes) == 0 {
		return
	}
	*size = sizes[0]
	if len(sizes) > 1 {
		fmt.Fprintf(os.Stderr, "arcbench: %s figure measures one value size per run; using %d\n", id, sizes[0])
	}
}

// customize applies CLI overrides to a register-sweep figure. Explicit
// -threads/-sizes/-duration/-warmup win over -quick's shrinking (a 1-CPU
// host would otherwise clip an explicitly requested sweep).
func customize(fig harness.Figure, o *opts) harness.Figure {
	if o.steal >= 0 {
		fig.StealFraction = o.steal
	}
	// -writers only applies to figures that sweep multiple writers (the
	// MN figure); forcing it onto the (1,N) figures would fail every
	// cell, which matters for `-figure all -writers N`. A single value
	// replaces the figure's M; a list turns M into a sweep axis.
	if len(o.writers) > 0 && fig.Writers > 0 {
		if len(o.writers) == 1 {
			fig.Writers = o.writers[0]
			fig.WriterCounts = nil
		} else {
			fig.WriterCounts = o.writers
		}
	}
	if o.quick {
		maxTh := 2 * runtime.NumCPU()
		if fig.ID == "fig3" {
			maxTh = 64
			fig.Threads = []int{16, 32, 64}
		}
		fig = fig.Scale(maxTh, 0, 0)
		if maxW := maxWriters(fig); maxW > 1 {
			// Keep at least one reader beside the writers; goroutine
			// oversubscription is fine for a smoke run.
			fig.Threads = []int{maxW + 1, maxW + 4}
		}
		if len(fig.Sizes) > 2 {
			fig.Sizes = fig.Sizes[:2]
		}
	}
	fig.Duration, fig.Warmup = o.window(200 * time.Millisecond)
	set(&fig.Threads, o.threads)
	set(&fig.Sizes, o.sizes)
	return fig
}

// maxWriters reports the largest writer count a figure will deploy.
func maxWriters(fig harness.Figure) int {
	m := fig.Writers
	for _, w := range fig.WriterCounts {
		if w > m {
			m = w
		}
	}
	return m
}

func singleRun(out io.Writer, o *opts) error {
	a, err := harness.ParseAlgorithm(o.alg)
	if err != nil {
		return err
	}
	m, err := workload.ParseMode(o.mode)
	if err != nil {
		return err
	}
	writers := 0
	if len(o.writers) > 0 {
		writers = o.writers[0]
	}
	if writers == 0 && a.IsMN() {
		writers = 4
	}
	cfg := harness.RunConfig{
		Algorithm:     a,
		Threads:       o.nthreads,
		Writers:       writers,
		ValueSize:     o.size,
		Mode:          m,
		Duration:      o.duration,
		Warmup:        o.warmup,
		LatencySample: o.latency,
	}
	if a.IsMN() && cfg.Threads < cfg.Writers+1 {
		cfg.Threads = cfg.Writers + 1
	}
	if o.steal > 0 {
		cfg.StealFraction = o.steal
	}
	res, err := harness.Run(cfg)
	if err != nil {
		return err
	}
	if cfg.Writers > 1 {
		fmt.Fprintf(out, "%s threads=%d writers=%d size=%d mode=%s steal=%.0f%%\n",
			a, cfg.Threads, cfg.Writers, o.size, m, cfg.StealFraction*100)
	} else {
		fmt.Fprintf(out, "%s threads=%d size=%d mode=%s steal=%.0f%%\n",
			a, cfg.Threads, o.size, m, cfg.StealFraction*100)
	}
	fmt.Fprintf(out, "  throughput: %s\n", res.Throughput())
	// Per-op ratios use the protocol counters for both numerator and
	// denominator: they cover the same operations (warmup included),
	// unlike the measured-window op counts.
	fmt.Fprintf(out, "  reads:  %d ops, %d RMW (%.4f/op), %d fast-path (%.1f%%)\n",
		res.ReadOps, res.ReadStat.RMW, safeDiv(res.ReadStat.RMW, res.ReadStat.Ops),
		res.ReadStat.FastPath, 100*safeDiv(res.ReadStat.FastPath, res.ReadStat.Ops))
	fmt.Fprintf(out, "  writes: %d ops, %d RMW, %d scan steps (%.2f/op), %d hint hits\n",
		res.WriteOps, res.WriteStat.RMW, res.WriteStat.ScanSteps,
		safeDiv(res.WriteStat.ScanSteps, res.WriteStat.Ops), res.WriteStat.HintHits)
	if res.Steal.Steals > 0 {
		fmt.Fprintf(out, "  steal:  %d events, %v stolen\n", res.Steal.Steals, res.Steal.Stolen)
	}
	if res.ReadLat.Count() > 0 {
		fmt.Fprintf(out, "  read latency:  %s\n", res.ReadLat.String())
		fmt.Fprintf(out, "  write latency: %s\n", res.WriteLat.String())
	}
	return nil
}

func safeDiv(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ints is a comma-separated integer list flag.
type ints []int

func (l *ints) String() string { return fmt.Sprint([]int(*l)) }

func (l *ints) Set(s string) (err error) {
	*l, err = parseInts(s)
	return err
}

// parseInts reads a comma-separated integer list. A k/K suffix means
// thousands (1k = 1000, 10k = 10000) — the watcher sweeps are quoted
// that way.
func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		mult := 1
		if s := strings.TrimRight(part, "kK"); len(s) == len(part)-1 {
			part, mult = s, 1000
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, n*mult)
	}
	return out, nil
}
