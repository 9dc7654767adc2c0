package harness

// The wakeup-latency experiment behind `arcbench -figure watch`: one
// writer publishes timestamped values at a fixed cadence; W subscribers
// observe them either event-driven (parked on the publication
// sequencer, the notify subsystem under the Watch API) or by polling
// the freshness probe at a fixed interval. The measured
// publish→observe latency quantifies what the subsystem buys: a parked
// watcher wakes in scheduler time regardless of how rarely values
// change, while a poller's latency floor is half its poll interval —
// and its idle cost is a CPU-resident loop. The paper's evaluation
// never shows this (its readers spin); it is what a deployment of many
// mostly-idle subscribers pays.

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"arcreg/internal/arc"
	"arcreg/internal/metrics"
	"arcreg/internal/notify"
	"arcreg/internal/register"
	"arcreg/internal/trace"
)

// WatchMode selects how a subscriber observes publications.
type WatchMode string

const (
	// ModeWatch parks on the publication sequencer between changes —
	// the notify/Watch path.
	ModeWatch WatchMode = "watch"
	// ModePoll probes freshness in a sleep loop (PollEvery per round) —
	// a subscriber without the notify subsystem.
	ModePoll WatchMode = "poll"
)

// WatchRunConfig describes one cell of the watch figure.
type WatchRunConfig struct {
	// Mode is the subscriber discipline; PollEvery is the poll-mode
	// sleep per probe round (ignored in watch mode).
	Mode      WatchMode
	PollEvery time.Duration
	// Watchers is the subscriber count.
	Watchers int
	// FanArity/FanDepth route watch-mode parks through the sequencer
	// gate's wakeup tree: each watcher subscribes a leaf and parks
	// there, so a publication costs the writer one root wake and the
	// fan-out runs on the tree's relay helpers. Zero means the flat
	// baseline — every watcher parks directly on the sequencer gate and
	// the writer's publish closes one channel with Watchers waiters
	// inline. Ignored in poll mode.
	FanArity int
	FanDepth int
	// PublishEvery is the writer cadence (0 = back-to-back).
	PublishEvery time.Duration
	// ValueSize is the published value size (≥ 8; the first 8 bytes
	// carry the publish timestamp).
	ValueSize int
	// Duration is the measurement window; Warmup precedes it.
	Duration time.Duration
	Warmup   time.Duration
	// SlowConsumers makes the first SlowConsumers watchers spend
	// SlowDelay "processing" each delivery before completing it — the
	// backpressure cell: a consumer that cannot keep up with the
	// publish cadence, whose ledger shows lag and conflation while the
	// fast watchers' stays near zero.
	SlowConsumers int
	SlowDelay     time.Duration
}

// WatchResult is one cell's outcome.
type WatchResult struct {
	// Published counts writer publications in the measured window;
	// Observed counts change observations summed over watchers.
	Published uint64
	Observed  uint64
	// Latency is the publish→observe distribution (ns), merged over
	// watchers.
	Latency metrics.Histogram
	Elapsed time.Duration
	// LagP50 and LagMax are the live population's backpressure lag
	// (publications known but not yet delivered), sampled mid-window
	// while the watchers run — lag is a property of a running
	// population, not of its quiescent residue.
	LagP50 uint64
	LagMax uint64
	// Conflated counts publications skipped forever by latest-value
	// conflation, Wakeups the park→wake edges, both summed over
	// watchers for the whole run.
	Conflated uint64
	Wakeups   uint64
	// PubOverhead is the writer-side cost distribution: nanoseconds per
	// Write call in the measured window. This is the column that
	// separates the flat gate from the tree — a flat publish with W
	// parked watchers closes a W-waiter channel inline, so its tail
	// grows with the audience; a tree publish wakes one root relay no
	// matter how many leaves are parked below it.
	PubOverhead metrics.Histogram
	// CascadeLat and FlushLat are the flight recorder's per-stage
	// decomposition over the trailing ring window: origin publication →
	// wakeup-tree root cascade, and → frame flush. This figure runs at
	// the register level — there is no serving edge, so FlushLat is
	// always empty here; the column exists so the watch and serve CSVs
	// share one stage-breakdown shape. ConflateDrops sums publications
	// conflated away at delivery decisions. All zero for poll cells
	// (the recorder traces the notify path, which pollers bypass).
	CascadeLat    metrics.Histogram
	FlushLat      metrics.Histogram
	ConflateDrops uint64
}

// RunWatch measures one watch-latency cell.
func RunWatch(cfg WatchRunConfig) (WatchResult, error) {
	if cfg.Watchers <= 0 {
		return WatchResult{}, fmt.Errorf("harness: watch figure needs at least one watcher, got %d", cfg.Watchers)
	}
	if cfg.ValueSize < 8 {
		cfg.ValueSize = 8
	}
	reg, err := arc.New(register.Config{
		MaxReaders:   cfg.Watchers,
		MaxValueSize: cfg.ValueSize,
	}, arc.Options{})
	if err != nil {
		return WatchResult{}, err
	}

	// Watch cells run with the flight recorder on: the register's
	// publish stamps spans, the fan tree's root relay records cascades,
	// and each watcher's lane records wakes and conflation decisions —
	// the stage-breakdown columns. The recording paths are zero-RMW and
	// zero-alloc (guard-tested), so the traced cell is the production
	// configuration. Pollers bypass the notify path entirely and stay
	// untraced.
	var tracer *trace.Tracer
	if cfg.Mode == ModeWatch {
		tracer = trace.New(trace.Config{Lanes: cfg.Watchers})
		reg.Trace(tracer.Ring("writer"))
		if cfg.FanArity > 0 {
			reg.Notifier().Fan(cfg.FanArity, cfg.FanDepth).Trace(tracer.Ring("fan"))
		}
	}

	// Timestamps are nanoseconds since base on Go's monotonic clock,
	// encoded into the value's first 8 bytes.
	base := time.Now()
	now := func() uint64 { return uint64(time.Since(base)) }

	const (
		phaseWarmup = iota
		phaseMeasure
		phaseStop
	)
	var phase atomic.Int32
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var published uint64
	var pubHist metrics.Histogram
	var wg sync.WaitGroup

	// Writer: publish a timestamped value every PublishEvery, timing
	// each measured-window Write into the publisher-overhead histogram
	// (single goroutine; read only after wg.Wait).
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, cfg.ValueSize)
		for phase.Load() != phaseStop {
			binary.LittleEndian.PutUint64(buf, now())
			measured := phase.Load() == phaseMeasure
			t0 := now()
			if err := reg.Write(buf); err != nil {
				return
			}
			if measured {
				pubHist.Record(now() - t0)
				published++
			}
			if cfg.PublishEvery > 0 {
				time.Sleep(cfg.PublishEvery)
			}
		}
	}()

	// Watchers: observe every change, record publish→observe latency,
	// and keep a backpressure ledger per watcher.
	type watchStats struct {
		hist     metrics.Histogram
		observed uint64
	}
	track := &notify.Tracker{}
	stats := make([]watchStats, cfg.Watchers)
	for w := 0; w < cfg.Watchers; w++ {
		rd, err := reg.NewReaderHandle()
		if err != nil {
			phase.Store(phaseStop)
			cancel()
			wg.Wait()
			return WatchResult{}, err
		}
		var slow time.Duration
		if w < cfg.SlowConsumers {
			slow = cfg.SlowDelay
		}
		wg.Add(1)
		go func(st *watchStats, slow time.Duration) {
			defer wg.Done()
			defer rd.Close()
			ws := &notify.WatchStats{}
			var lane *trace.Ring
			if tracer != nil {
				var release func()
				lane, release = tracer.AcquireLane()
				if release != nil {
					defer release()
				}
				ws.Trace(lane)
			}
			track.Attach(ws)
			defer track.Detach(ws)
			seq := reg.Notifier()
			// Tree cell: park on a private wakeup-tree leaf instead of the
			// sequencer gate itself; the publisher's wake reaches it through
			// the relay cascade.
			var sub *notify.Sub
			if cfg.Mode == ModeWatch && cfg.FanArity > 0 {
				sub = seq.Fan(cfg.FanArity, cfg.FanDepth).Subscribe()
				defer sub.Close()
			}
			for {
				// Snapshot before read: the at-least-once discipline of
				// the Watch engine, reproduced at the register level.
				seen := seq.Epoch()
				ws.NoteSeen(seen)
				v, changed, err := rd.ViewFresh()
				if err != nil {
					return
				}
				if changed && len(v) >= 8 {
					lat := now() - binary.LittleEndian.Uint64(v)
					if phase.Load() == phaseMeasure {
						st.hist.Record(lat)
						st.observed++
					}
					// A slow consumer spends SlowDelay processing the
					// value; the delivery completes only when processing
					// does (Watch-engine semantics: NoteDelivered fires
					// after yield returns), so mid-window lag samples see
					// the backlog it accumulates.
					if slow > 0 {
						time.Sleep(slow)
					}
					// Conflation drops mirror NoteDelivered's epoch-jump
					// accounting, computed before the ledger frame advances.
					var drops uint64
					if lane != nil && ws.Delivered() > 0 && seen > ws.Observed()+1 {
						drops = seen - ws.Observed() - 1
					}
					ws.NoteDelivered(seen)
					if lane != nil {
						lane.Record(trace.StageConflate, uint32(drops), ws.LastWake(), seen)
					}
				} else {
					ws.NoteObserved(seen)
					if lane != nil {
						lane.Record(trace.StageConflate, 0, ws.LastWake(), 0)
					}
				}
				if phase.Load() == phaseStop {
					return
				}
				switch cfg.Mode {
				case ModeWatch:
					if sub != nil {
						if _, err := notify.WaitEpoch(ctx, seq.Epoch, seen, ws, sub.Gate()); err != nil {
							return
						}
					} else if _, err := seq.WaitStats(ctx, seen, ws); err != nil {
						return
					}
				default: // ModePoll: probe-and-sleep
					if cfg.PollEvery > 0 {
						time.Sleep(cfg.PollEvery)
					}
				}
			}
		}(&stats[w], slow)
	}

	time.Sleep(cfg.Warmup)
	phase.Store(phaseMeasure)
	start := time.Now()
	// Sample the live population's lag while the window runs (a slow
	// consumer's backlog exists only mid-flight; after stop every
	// watcher drains and lag collapses to zero). Keep the worst sample.
	var lagP50, lagMax uint64
	const lagSamples = 4
	for i := 0; i < lagSamples; i++ {
		time.Sleep(cfg.Duration / lagSamples)
		sn := track.Stats()
		if p50, _ := sn.Get("lag_p50"); p50 > lagP50 {
			lagP50 = p50
		}
		if max, _ := sn.Get("lag_max"); max > lagMax {
			lagMax = max
		}
	}
	phase.Store(phaseStop)
	elapsed := time.Since(start)
	// Snapshot the recorder before teardown: lanes are released (and
	// may be re-zeroed for reuse) as watchers exit.
	var breakdown trace.Breakdown
	if tracer != nil {
		breakdown = tracer.Breakdown()
	}
	cancel() // release parked watchers
	wg.Wait()

	res := WatchResult{
		Published: published, Elapsed: elapsed,
		LagP50: lagP50, LagMax: lagMax,
		PubOverhead:   pubHist,
		CascadeLat:    breakdown.Latency[trace.StageCascade],
		FlushLat:      breakdown.Latency[trace.StageFlush],
		ConflateDrops: breakdown.ConflateDrops,
	}
	// Every watcher has detached: the tracker's totals are the retired
	// sums for the whole run.
	fin := track.Stats()
	res.Conflated, _ = fin.Get("conflated")
	res.Wakeups, _ = fin.Get("wakeups")
	for i := range stats {
		res.Observed += stats[i].observed
		res.Latency.Merge(&stats[i].hist)
	}
	return res, nil
}

// WatchFigure sweeps subscriber disciplines × watcher counts.
type WatchFigure struct {
	ID           string
	Watchers     []int
	PollEvery    []time.Duration // one poll-mode series per interval
	PublishEvery time.Duration
	ValueSize    int
	Duration     time.Duration
	Warmup       time.Duration
	// SlowConsumers/SlowDelay deliberately lag that many watchers per
	// cell (see WatchRunConfig), populating the lag and conflation
	// columns with a real backpressure signal.
	SlowConsumers int
	SlowDelay     time.Duration
	// FanArity/FanDepth configure the tree-parked watch series (the
	// "watch" rows). The figure also always runs the flat baseline
	// ("watch-flat"), where every watcher parks directly on the
	// sequencer gate — the pair is the fan-out comparison. Zero arity
	// drops the tree series.
	FanArity int
	FanDepth int
}

// FigWatch returns the standard watch-latency figure: parked watchers
// versus 100µs and 1ms pollers, swept over watcher counts, with one
// deliberately slow consumer per cell so the backpressure columns
// (lag, conflation) measure a real lagging subscriber.
func FigWatch() WatchFigure {
	return WatchFigure{
		ID:            "watch",
		Watchers:      []int{1, 4, 16},
		PollEvery:     []time.Duration{100 * time.Microsecond, time.Millisecond},
		PublishEvery:  200 * time.Microsecond,
		ValueSize:     64,
		Duration:      time.Second,
		Warmup:        100 * time.Millisecond,
		SlowConsumers: 1,
		SlowDelay:     5 * time.Millisecond,
		FanArity:      notify.DefaultFanArity,
		FanDepth:      notify.DefaultFanDepth,
	}
}

// maxPollWatchers caps the poll series: above this count a poll cell
// is skipped rather than run, because N polling goroutines are N
// CPU-resident sleep loops — at 100k they measure scheduler thrash,
// not the subsystem, and would make the sweep take hours. The watch
// series has no such cap; parked watchers are free.
const maxPollWatchers = 4096

// Scale clamps the figure for smoke runs.
func (f WatchFigure) Scale(maxWatchers int, duration, warmup time.Duration) WatchFigure {
	var ws []int
	for _, w := range f.Watchers {
		if w <= maxWatchers {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		ws = []int{1}
	}
	f.Watchers = ws
	if duration > 0 && duration < f.Duration {
		f.Duration = duration
	}
	if warmup > 0 && warmup < f.Warmup {
		f.Warmup = warmup
	}
	return f
}

// Run executes the sweep into a one-line-per-row report: the
// tree-parked watch series (when FanArity is set), the flat-gate
// baseline, and one poll series per configured interval, each across
// the watcher counts. Poll cells above maxPollWatchers are skipped, not
// silently shrunk — they simply do not appear in the output.
func (f WatchFigure) Run(progress func(done, total int, r Row)) (Report, error) {
	type cell struct {
		series             string
		mode               WatchMode
		poll               time.Duration
		fanArity, fanDepth int
		watchers           int
	}
	var series []cell
	if f.FanArity > 0 {
		series = append(series, cell{series: "watch", mode: ModeWatch, fanArity: f.FanArity, fanDepth: f.FanDepth})
	}
	series = append(series, cell{series: "watch-flat", mode: ModeWatch})
	for _, p := range f.PollEvery {
		series = append(series, cell{series: fmt.Sprintf("poll-%s", p), mode: ModePoll, poll: p})
	}
	var cells []cell
	for _, c := range series {
		for _, w := range f.Watchers {
			if c.mode == ModePoll && w > maxPollWatchers {
				continue
			}
			c.watchers = w
			cells = append(cells, c)
		}
	}
	rep := Report{ID: f.ID, Caption: "publish→observe wakeup latency",
		Params: fmt.Sprintf("publish every %v, value %dB, window %v, %d slow consumer(s) +%v",
			f.PublishEvery, f.ValueSize, f.Duration, f.SlowConsumers, f.SlowDelay)}
	err := rep.sweep(len(cells), progress, func(i int) (Row, error) {
		c := cells[i]
		r, err := RunWatch(WatchRunConfig{
			Mode:          c.mode,
			PollEvery:     c.poll,
			Watchers:      c.watchers,
			FanArity:      c.fanArity,
			FanDepth:      c.fanDepth,
			PublishEvery:  f.PublishEvery,
			ValueSize:     f.ValueSize,
			Duration:      f.Duration,
			Warmup:        f.Warmup,
			SlowConsumers: f.SlowConsumers,
			SlowDelay:     f.SlowDelay,
		})
		if err != nil {
			return Row{}, err
		}
		// New columns go at the end: CI's smoke grep matches a prefix
		// of this header, and plotting scripts index by name.
		return Row{
			Tags: []Field{
				text("series", "series", c.series),
				num("watchers", "watchers", "count", c.watchers),
				num("publish_every_us", "", "us", float64(f.PublishEvery)/float64(time.Microsecond)),
				num("poll_every_us", "", "us", float64(c.poll)/float64(time.Microsecond)),
			},
			Metrics: []Field{
				num("published", "published", "count", r.Published),
				num("observed", "observed", "count", r.Observed),
				num("lat_p50_ns", "lat p50", "ns", r.Latency.Quantile(0.5)),
				num("lat_p99_ns", "lat p99", "ns", r.Latency.Quantile(0.99)),
				num("lat_max_ns", "lat max", "ns", r.Latency.Max()),
				num("lag_p50", "lag p50", "count", r.LagP50),
				num("lag_max", "lag max", "count", r.LagMax),
				num("conflated", "conflated", "count", r.Conflated),
				num("wakeups", "wakeups", "count", r.Wakeups),
				num("pub_p50_ns", "pub p50", "ns", r.PubOverhead.Quantile(0.5)),
				num("pub_p99_ns", "pub p99", "ns", r.PubOverhead.Quantile(0.99)),
				num("cascade_p99_ns", "cascade p99", "ns", r.CascadeLat.Quantile(0.99)),
				num("conflate_drops", "drops", "count", r.ConflateDrops),
				num("flush_p99_ns", "", "ns", r.FlushLat.Quantile(0.99)),
			},
		}, nil
	})
	return rep, err
}
