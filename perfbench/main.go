// Command perfbench is the repository benchmark. It loads the public
// arcreg API from one process with at most two load goroutines (and, for
// edge, two client connections), checks every value it reads, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload feed --seed 1 --seconds 20 --trace 0
//	cd perfbench && go test ./...   # verifier tests and a short smoke run
//
// Workloads (the layer each loads most is named in its reason):
//
//   - feed: one ARC (1,N) register with 4,096 reader handles and 4 KiB
//     values. One writer publishes at a fixed 20k/s (open loop, paced by
//     spinning on the monotonic clock); one reader views round-robin
//     across all handles (closed loop). internal/arc does nearly all the
//     work: slot pinning, 2 RMW per slow-path read, the writer's
//     free-slot search. With 4,096 handles every read meets a new
//     publication, which holds the fast/slow-path mix fixed.
//   - catalog: a typed map of 40k keys, 8 shards, Binary codec, dynamic
//     values, flight recorder on. One writer updates uniform keys, one
//     reader does Zipf(1.1) typed Gets, both closed loop. regmap, the
//     codec and the recorder do most of the work; the 40k-key preload is
//     the bulk-load cost users pay at start.
//   - edge: the HTTP stack over a 16k-key byte map on a loopback
//     listener. One keep-alive connection runs a closed loop of 9 GETs
//     to 1 PUT on Zipf(1.1) keys, every fourth PUT to one hot key; a
//     second connection holds an SSE watch on the hot key. Client and
//     server share one P (GOMAXPROCS 1). serve and net/http do most of
//     the work; publish→SSE delivery crosses notify.
//
// End-to-end metrics come from untraced runs, and every workload reports
// all of them. setup_s is the median of several set-ups in one run.
// Throughputs are the median rate over sub-windows. Latency p50s are
// exact percentiles of recorded samples: every request on edge, every
// 1,024th view on feed, every 64th Get and 8th Set on catalog. feed
// times writes from their due time. On feed and catalog, observe is the
// time from a write's due time (feed) or start (catalog) to the reader's
// first read of that version; on edge it is PUT sent → SSE frame decoded.
// heap_mb is the live heap after a forced collection, with the
// workload's structures still reachable and the benchmark's own buffers
// dropped.
//
// --trace 1 runs the workload untraced and then again with the
// benchmark's own timers around the calls into each layer (spans kept in
// memory, written to .bench_build/spans/ at the end) and prints the
// per-layer metrics of the traced run plus overhead.<metric>, the
// traced-minus-untraced difference of each end-to-end metric. A layer a
// workload does not call reports 0.
//
// Any correctness violation makes the run exit non-zero after printing
// its result with "correct": false.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// params sizes one run. short shrinks the key counts and set-up repeats
// for the smoke test; the command line always runs full size.
type params struct {
	seed     int64
	window   time.Duration
	short    bool
	spansDir string
}

// outcome is what one phase (untraced or traced) of a workload measured.
type outcome struct {
	attempted, failed uint64
	audit             audit
	e2e, layer        map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// latency records one sampled operation stream's tail as report-only
// per-layer metrics: the tail value, its percentile and the sample
// count.
func (o *outcome) latency(name string, d dist) {
	pct, v := d.tail()
	o.layer[name+"_p99_us"] = v / 1e3
	o.layer[name+"_tail_pct"] = pct
	o.layer[name+"_samples"] = float64(len(d))
}

type workload func(p params, traced bool) (*outcome, error)

var workloads = map[string]workload{
	"feed":    runFeed,
	"catalog": runCatalog,
	"edge":    runEdge,
}

type metricDef struct{ name, unit string }

var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"reads_per_s", "ops/s"},
	{"writes_per_s", "ops/s"},
	{"read_p50_us", "us"},
	{"write_p50_us", "us"},
	{"observe_p50_us", "us"},
	{"heap_mb", "MiB"},
}

var layerMetrics = []metricDef{
	{"arc.read_ns", "ns"},
	{"arc.rmw_per_read", "count"},
	{"arc.fastpath_share", "ratio"},
	{"arc.write_ns", "ns"},
	{"arc.scan_per_write", "count"},
	{"arc.hint_share", "ratio"},
	{"regmap.get_ns", "ns"},
	{"codec.decode_ns", "ns"},
	{"regmap.fastpath_share", "ratio"},
	{"regmap.rmw_per_get", "count"},
	{"regmap.set_ns", "ns"},
	{"codec.encode_ns", "ns"},
	{"trace.events_per_set", "count"},
	{"regmap.addkey_first_us", "us"},
	{"regmap.addkey_last_us", "us"},
	{"regmap.heap_bytes_per_key", "B"},
	{"serve.get_handler_us", "us"},
	{"serve.read_fastpath_share", "ratio"},
	{"serve.get_outside_us", "us"},
	{"serve.put_handler_us", "us"},
	{"notify.delivered", "count"},
	{"notify.conflated", "count"},
	{"notify.wakeups", "count"},
	{"trace.cascade_p50_us", "us"},
	{"trace.flush_p50_us", "us"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_share", "ratio"},
	{"gen.late_p99_us", "us"},
	{"read_p99_us", "us"},
	{"read_tail_pct", "%"},
	{"read_samples", "count"},
	{"write_p99_us", "us"},
	{"write_tail_pct", "%"},
	{"write_samples", "count"},
	{"observe_p99_us", "us"},
	{"observe_tail_pct", "%"},
	{"observe_samples", "count"},
}

// overheadMetrics are the per-layer tracing overheads, one per
// end-to-end metric.
func overheadMetrics() []metricDef {
	out := make([]metricDef, len(e2eMetrics))
	for i, m := range e2eMetrics {
		out[i] = metricDef{"overhead." + m.name, m.unit}
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order      []string
	violations []string
}

func (r *report) put(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

// warmCPUs spins two goroutines for d. On the shared host, vCPUs that
// sat idle run at about half speed for the first second of load; set-up
// timed before they come up to speed reads slow.
func warmCPUs(d time.Duration) {
	var wg sync.WaitGroup
	end := now() + int64(d)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now() < end {
			}
		}()
	}
	wg.Wait()
}

// measure runs one workload: untraced, then traced when asked.
func measure(name string, p params, traced bool) (*report, error) {
	run, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want feed, catalog or edge)", name)
	}
	warm := time.Second
	if p.short {
		warm = 50 * time.Millisecond
	}
	warmCPUs(warm)

	base, err := run(p, false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r := &report{Metrics: map[string]metric{}}
	phases := []*outcome{base}
	if !traced {
		for _, m := range e2eMetrics {
			r.put(m.name, m.unit, base.e2e[m.name])
		}
	} else {
		tr, err := run(p, true)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", name, err)
		}
		phases = append(phases, tr)
		for _, m := range layerMetrics {
			r.put(m.name, m.unit, tr.layer[m.name])
		}
		for i, m := range overheadMetrics() {
			e := e2eMetrics[i].name
			r.put(m.name, m.unit, tr.e2e[e]-base.e2e[e])
		}
	}
	var a audit
	for _, ph := range phases {
		r.Attempted += ph.attempted
		r.Failed += ph.failed
		a.merge(&ph.audit)
	}
	r.Correct = a.n == 0
	r.violations = a.first
	for _, n := range r.order {
		if v := r.Metrics[n].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s has no value (no samples?)", name, n)
		}
	}
	if r.Attempted == 0 {
		return nil, errors.New(name + ": no operation completed")
	}
	return r, nil
}

func main() {
	name := flag.String("workload", "", "workload to run: feed, catalog or edge")
	seed := flag.Int64("seed", 1, "seed of the generated keys, key choices and values")
	seconds := flag.Float64("seconds", 10, "measurement window per phase, in seconds")
	traceFlag := flag.Int("trace", 0, "1: run untraced, then traced, and print per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	// Every run must end within 180 s, even if a connection wedges.
	time.AfterFunc(175*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 175s; aborting")
		os.Exit(3)
	})

	p := params{
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		spansDir: filepath.Join(".bench_build", "spans"),
	}
	r, err := measure(*name, p, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range r.order {
		m := r.Metrics[n]
		fmt.Printf("%-8s %-28s %16.6g %s\n", *name, n, m.Value, m.Unit)
	}
	for _, v := range r.violations {
		fmt.Println("VIOLATION:", v)
	}
	fmt.Printf("%s: attempted %d, failed %d, correct %v\n", *name, r.Attempted, r.Failed, r.Correct)
	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !r.Correct {
		os.Exit(1)
	}
}
