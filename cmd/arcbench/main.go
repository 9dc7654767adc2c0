// Command arcbench regenerates the ARC paper's evaluation (§5, Figures
// 1–3) plus the RMW-accounting and ablation experiments on the local
// machine.
//
// Regenerate a whole figure (one ASCII table per register size, the same
// series the paper plots):
//
//	arcbench -figure fig1
//	arcbench -figure fig2            # virtualized host: CPU-steal simulation
//	arcbench -figure fig3            # 1000–4000 threads, time-sharing
//	arcbench -figure processing      # §5's second workload
//	arcbench -figure ablation        # ARC vs its own disabled optimizations
//	arcbench -figure rmw             # RMW instructions per read, ARC vs RF vs (M,N)
//	arcbench -figure mn              # (M,N) composite: fresh-gated collect vs ablation
//	arcbench -figure serve           # HTTP loopback: GET req/s + publish→observe latency
//	arcbench -figure all             # everything above, in order
//
// Sweeps can be overridden (-threads, -sizes, -duration, -steal,
// -writers) and shrunk for smoke runs (-quick); explicit -threads/-sizes
// overrides win over the -quick caps. A single deployment can be
// measured directly:
//
//	arcbench -alg arc -threads 16 -size 32768 -duration 2s
//	arcbench -alg mn -writers 4 -nthreads 8 -size 4096
//
// Results go to stdout; -csv appends machine-readable rows to a file.
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

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("arcbench", flag.ContinueOnError)
	var (
		figure    = fs.String("figure", "", "figure to regenerate: fig1|fig2|fig3|processing|ablation|extensions|mn|map|rmw|latency|watch|serve|all")
		alg       = fs.String("alg", "arc", "algorithm for single runs: "+harness.AlgorithmNames())
		threads   = fs.String("threads", "", "comma-separated thread counts (overrides the figure's sweep)")
		sizes     = fs.String("sizes", "", "comma-separated register sizes in bytes (overrides the sweep)")
		size      = fs.Int("size", 4096, "register size for single runs")
		nthreads  = fs.Int("nthreads", 4, "thread count for single runs (writers + readers)")
		writers   = fs.String("writers", "", "writer thread count(s): one value for single runs, a comma list sweeps M on the mn figure (e.g. 1,2,4,8)")
		mode      = fs.String("mode", "dummy", "workload: dummy|processing")
		duration  = fs.Duration("duration", time.Second, "measurement window per cell")
		warmup    = fs.Duration("warmup", 200*time.Millisecond, "warmup before each window")
		stealF    = fs.Float64("steal", -1, "CPU-steal fraction override (0..0.9; -1 keeps the figure default)")
		quick     = fs.Bool("quick", false, "shrink sweeps and windows for a smoke run")
		csvPath   = fs.String("csv", "", "also append CSV rows to this file")
		latency   = fs.Int("latency-sample", 0, "record every Nth op latency in single runs (0=off)")
		keys      = fs.String("keys", "", "comma-separated key counts for the map figure (overrides the sweep)")
		zipf      = fs.Float64("zipf", -1, "map figure key-popularity Zipf exponent (≤1 uniform; -1 keeps the default)")
		shards    = fs.Int("shards", 0, "map figure shard count (0 keeps the default)")
		delEvery  = fs.Int("delete-every", -1, "map figure delete-mix: every Nth writer op deletes/re-creates a lifecycle key (0 disables; -1 keeps the default)")
		snapEvery = fs.Int("snapshot-every", -1, "map figure snapshot mix: every Nth reader op takes a multi-key Snapshot (0 disables; -1 keeps the default)")
		watchers  = fs.String("watchers", "", "comma-separated watcher counts for the watch figure, k suffix = thousands (e.g. 1k,10k; overrides the sweep)")
		clients   = fs.String("clients", "", "comma-separated HTTP client counts for the serve figure (overrides the sweep)")
		pubEvery  = fs.Duration("publish-every", 0, "watch figure writer cadence (0 keeps the default)")
		fanArity  = fs.Int("fan-arity", -1, "watch figure wakeup-tree arity (0 drops the tree series; -1 keeps the default)")
		fanDepth  = fs.Int("fan-depth", -1, "watch figure wakeup-tree depth (-1 keeps the default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Fprintf(out, "arcbench: GOMAXPROCS=%d NumCPU=%d\n\n", runtime.GOMAXPROCS(0), runtime.NumCPU())

	writerList := mustInts(*writers)
	firstWriters := 0
	if len(writerList) > 0 {
		firstWriters = writerList[0]
	}

	if *figure == "" {
		return singleRun(out, *alg, *nthreads, firstWriters, *size, *mode, *duration, *warmup, *stealF, *latency)
	}

	ids := []string{*figure}
	if *figure == "all" {
		ids = []string{"fig1", "fig2", "fig3", "processing", "ablation", "extensions", "mn", "map", "rmw", "latency", "watch", "serve"}
	}
	var csv *os.File
	if *csvPath != "" {
		f, err := os.OpenFile(*csvPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		csv = f
	}
	for _, id := range ids {
		if id == "rmw" {
			if err := runRMW(out, *threads, firstWriters, *size, *duration, *warmup, *quick); err != nil {
				return err
			}
			continue
		}
		if id == "latency" {
			if err := runLatency(out, *nthreads, *size, *stealF, *duration, *warmup, *quick); err != nil {
				return err
			}
			continue
		}
		if id == "map" {
			if err := runMapFigure(out, csv, *threads, *keys, *sizes, *shards, *delEvery, *snapEvery, *zipf, *stealF, *mode, *duration, *warmup, *quick); err != nil {
				return err
			}
			continue
		}
		if id == "watch" {
			if err := runWatchFigure(out, csv, *watchers, *sizes, *pubEvery, *fanArity, *fanDepth, *duration, *warmup, *quick); err != nil {
				return err
			}
			continue
		}
		if id == "serve" {
			if err := runServeFigure(out, csv, *clients, *sizes, *pubEvery, *duration, *warmup, *quick); err != nil {
				return err
			}
			continue
		}
		fig, err := harness.FigureByID(id)
		if err != nil {
			return err
		}
		fig = customize(fig, *threads, *sizes, writerList, *duration, *warmup, *stealF, *quick)
		progress := func(done, total int, c harness.Cell) {
			status := fmt.Sprintf("%.2f Mops/s", c.Result.Mops())
			if c.Err != nil {
				status = "n/a (" + c.Err.Error() + ")"
			}
			fmt.Fprintf(os.Stderr, "[%s %d/%d] %s threads=%d size=%d: %s\n",
				fig.ID, done, total, c.Algorithm, c.Threads, c.Size, status)
		}
		data, err := fig.Run(progress)
		if err != nil {
			return err
		}
		data.RenderTable(out)
		if csv != nil {
			data.RenderCSV(csv)
		}
	}
	return nil
}

// customize applies CLI overrides to a figure definition. Explicit
// -threads/-sizes/-duration/-warmup win over -quick's shrinking (a 1-CPU
// host would otherwise clip an explicitly requested sweep).
func customize(fig harness.Figure, threads, sizes string, writers []int, duration, warmup time.Duration, stealF float64, quick bool) harness.Figure {
	if stealF >= 0 {
		fig.StealFraction = stealF
	}
	// -writers only applies to figures that sweep multiple writers (the
	// MN figure); forcing it onto the (1,N) figures would fail every
	// cell, which matters for `-figure all -writers N`. A single value
	// replaces the figure's M; a list turns M into a sweep axis.
	if len(writers) > 0 && fig.Writers > 0 {
		if len(writers) == 1 {
			fig.Writers = writers[0]
			fig.WriterCounts = nil
		} else {
			fig.WriterCounts = writers
		}
	}
	if quick {
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
		duration = min(duration, 200*time.Millisecond)
		warmup = min(warmup, 50*time.Millisecond)
	}
	fig.Duration = duration
	fig.Warmup = warmup
	if threads != "" {
		fig.Threads = mustInts(threads)
	}
	if sizes != "" {
		fig.Sizes = mustInts(sizes)
	}
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

func runRMW(out io.Writer, threads string, writers, size int, duration, warmup time.Duration, quick bool) error {
	th := []int{2, 4, 8, 16, 32}
	if threads != "" {
		th = mustInts(threads)
	}
	if quick {
		if threads == "" {
			th = []int{2, 4}
		}
		duration = min(duration, 200*time.Millisecond)
		warmup = min(warmup, 50*time.Millisecond)
	}
	rep, err := harness.RunRMWComparison(th, size, duration, warmup)
	if err != nil {
		return err
	}
	rep.Render(out)

	// The (M,N) composite rows: fresh-gated collect vs ablation. Reuse
	// the thread sweep where it fits M writers + ≥1 reader, extending it
	// with a minimal feasible deployment otherwise.
	if writers <= 0 {
		writers = 4
	}
	var mnTh []int
	for _, t := range th {
		if t >= writers+1 {
			mnTh = append(mnTh, t)
		}
	}
	if len(mnTh) == 0 {
		mnTh = []int{writers + 1}
	}
	mnRep, err := harness.RunMNRMWComparison(mnTh, writers, size, duration, warmup)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\n(M,N) composite, %d writers:\n", writers)
	mnRep.Render(out)
	return nil
}

// runMapFigure regenerates the keyed-workload figure (the regmap sharded
// snapshot map): thread sweep × key-count sweep, Zipf key popularity,
// with optional delete-mix (-delete-every) and snapshot (-snapshot-every)
// workloads. The shared -sizes and -steal overrides apply here too (the
// map figure measures one value size per run; the first -sizes entry
// wins).
func runMapFigure(out io.Writer, csv *os.File, threads, keys, sizes string, shards, delEvery, snapEvery int, zipf, stealF float64, mode string, duration, warmup time.Duration, quick bool) error {
	fig := harness.FigMap()
	m, err := workload.ParseMode(mode)
	if err != nil {
		return err
	}
	fig.Mode = m
	if shards > 0 {
		fig.Shards = shards
	}
	if delEvery >= 0 {
		fig.DeleteEvery = delEvery
	}
	if snapEvery >= 0 {
		fig.SnapshotEvery = snapEvery
	}
	if zipf >= 0 {
		fig.Zipf = zipf
	}
	if stealF >= 0 {
		fig.StealFraction = stealF
	}
	if sizes != "" {
		sz := mustInts(sizes)
		fig.ValueSize = sz[0]
		if len(sz) > 1 {
			fmt.Fprintf(os.Stderr, "arcbench: map figure measures one value size per run; using %d\n", sz[0])
		}
	}
	if quick {
		fig = fig.Scale(2*runtime.NumCPU(), min(duration, 200*time.Millisecond), min(warmup, 50*time.Millisecond))
	} else {
		fig.Duration = duration
		fig.Warmup = warmup
	}
	if threads != "" {
		fig.Threads = mustInts(threads)
	}
	if keys != "" {
		fig.Keys = mustInts(keys)
	}
	progress := func(done, total int, c harness.MapCell) {
		fmt.Fprintf(os.Stderr, "[%s %d/%d] keys=%d threads=%d: %.2f Mops/s (%.4f rmw/get)\n",
			fig.ID, done, total, c.Keys, c.Threads, c.Result.Mops(), c.Result.RMWPerGet())
	}
	data, err := fig.Run(progress)
	if err != nil {
		return err
	}
	data.RenderTable(out)
	if csv != nil {
		data.RenderCSV(csv)
	}
	return nil
}

// runWatchFigure regenerates the wakeup-latency figure: publish→observe
// latency of parked watchers vs fixed-interval pollers, swept over
// watcher counts (the notify subsystem's measurement; see DESIGN.md §8).
func runWatchFigure(out io.Writer, csv *os.File, watchers, sizes string, pubEvery time.Duration, fanArity, fanDepth int, duration, warmup time.Duration, quick bool) error {
	fig := harness.FigWatch()
	if pubEvery > 0 {
		fig.PublishEvery = pubEvery
	}
	if fanArity >= 0 {
		fig.FanArity = fanArity
	}
	if fanDepth >= 0 {
		fig.FanDepth = fanDepth
	}
	if sizes != "" {
		sz := mustInts(sizes)
		fig.ValueSize = sz[0]
		if len(sz) > 1 {
			fmt.Fprintf(os.Stderr, "arcbench: watch figure measures one value size per run; using %d\n", sz[0])
		}
	}
	if quick {
		fig = fig.Scale(4, min(duration, 200*time.Millisecond), min(warmup, 50*time.Millisecond))
	} else {
		fig.Duration = duration
		fig.Warmup = warmup
	}
	if watchers != "" {
		fig.Watchers = mustInts(watchers)
	}
	progress := func(done, total int, c harness.WatchCell) {
		fmt.Fprintf(os.Stderr, "[%s %d/%d] %s watchers=%d: %d observed, p99 %v, pub p99 %v, lag max %d, conflated %d\n",
			fig.ID, done, total, c.Series(), c.Watchers, c.Result.Observed,
			time.Duration(c.Result.Latency.Quantile(0.99)),
			time.Duration(c.Result.PubOverhead.Quantile(0.99)),
			c.Result.LagMax, c.Result.Conflated)
	}
	data, err := fig.Run(progress)
	if err != nil {
		return err
	}
	data.RenderTable(out)
	if csv != nil {
		data.RenderCSV(csv)
	}
	return nil
}

// runServeFigure regenerates the HTTP serving figure: a real arcserve
// server on a loopback listener, swept over concurrent GET client
// counts, reporting sustained req/s and publish→client-observe latency
// through the SSE watch path (see DESIGN.md §11).
func runServeFigure(out io.Writer, csv *os.File, clients, sizes string, pubEvery, duration, warmup time.Duration, quick bool) error {
	fig := harness.FigServe()
	if pubEvery > 0 {
		fig.PublishEvery = pubEvery
	}
	if sizes != "" {
		sz := mustInts(sizes)
		fig.ValueSize = sz[0]
		if len(sz) > 1 {
			fmt.Fprintf(os.Stderr, "arcbench: serve figure measures one value size per run; using %d\n", sz[0])
		}
	}
	if quick {
		fig = fig.Scale(2*runtime.NumCPU(), min(duration, 300*time.Millisecond), min(warmup, 50*time.Millisecond))
	} else {
		fig.Duration = duration
		fig.Warmup = warmup
	}
	if clients != "" {
		fig.Clients = mustInts(clients)
	}
	progress := func(done, total int, c harness.ServeCell) {
		fmt.Fprintf(os.Stderr, "[%s %d/%d] clients=%d: %.0f GET/s, get p99 %v, obs p99 %v, conflated %d\n",
			fig.ID, done, total, c.Clients, c.Result.Rate(),
			time.Duration(c.Result.GetLat.Quantile(0.99)),
			time.Duration(c.Result.ObsLat.Quantile(0.99)),
			c.Result.Conflated)
	}
	data, err := fig.Run(progress)
	if err != nil {
		return err
	}
	data.RenderTable(out)
	if csv != nil {
		data.RenderCSV(csv)
	}
	return nil
}

func runLatency(out io.Writer, threads, size int, stealF float64, duration, warmup time.Duration, quick bool) error {
	if quick {
		duration = 200 * time.Millisecond
		warmup = 50 * time.Millisecond
	}
	frac := 0.0
	if stealF > 0 {
		frac = stealF
	}
	algs := []harness.Algorithm{
		harness.AlgARC, harness.AlgRF, harness.AlgPeterson,
		harness.AlgLock, harness.AlgSeqlock, harness.AlgLeftRight,
		// The keyed store, measured through its single-key adapter (the
		// full directory-probe-then-value-read path), so map tail
		// latency is tracked alongside the raw algorithms.
		harness.AlgMap,
	}
	rep, err := harness.RunLatencyComparison(algs, threads, size, frac, duration, warmup)
	if err != nil {
		return err
	}
	rep.Render(out)
	return nil
}

func singleRun(out io.Writer, alg string, threads, writers, size int, mode string, duration, warmup time.Duration, stealF float64, latencySample int) error {
	a, err := harness.ParseAlgorithm(alg)
	if err != nil {
		return err
	}
	m, err := workload.ParseMode(mode)
	if err != nil {
		return err
	}
	if writers == 0 && a.IsMN() {
		writers = 4
	}
	cfg := harness.RunConfig{
		Algorithm:     a,
		Threads:       threads,
		Writers:       writers,
		ValueSize:     size,
		Mode:          m,
		Duration:      duration,
		Warmup:        warmup,
		LatencySample: latencySample,
	}
	if a.IsMN() && cfg.Threads < cfg.Writers+1 {
		cfg.Threads = cfg.Writers + 1
	}
	if stealF > 0 {
		cfg.StealFraction = stealF
	}
	res, err := harness.Run(cfg)
	if err != nil {
		return err
	}
	if cfg.Writers > 1 {
		fmt.Fprintf(out, "%s threads=%d writers=%d size=%d mode=%s steal=%.0f%%\n",
			a, cfg.Threads, cfg.Writers, size, m, cfg.StealFraction*100)
	} else {
		fmt.Fprintf(out, "%s threads=%d size=%d mode=%s steal=%.0f%%\n",
			a, cfg.Threads, size, m, cfg.StealFraction*100)
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

func mustInts(csv string) []int {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		// Accept a k/K suffix for thousands (1k = 1000, 10k = 10000) —
		// the watcher sweeps are quoted that way.
		mult := 1
		if s := strings.TrimRight(part, "kK"); len(s) == len(part)-1 {
			part, mult = s, 1000
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			fmt.Fprintf(os.Stderr, "arcbench: bad integer %q\n", part)
			os.Exit(2)
		}
		out = append(out, n*mult)
	}
	return out
}
