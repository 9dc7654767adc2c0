package harness

import (
	"strings"
	"testing"
	"time"

	"arcreg/internal/register"
	"arcreg/internal/workload"
)

// quickCfg returns a config with a tiny window, adequate for smoke tests.
func quickCfg(alg Algorithm, threads int) RunConfig {
	return RunConfig{
		Algorithm: alg,
		Threads:   threads,
		ValueSize: 1024,
		Mode:      workload.Dummy,
		Duration:  50 * time.Millisecond,
		Warmup:    10 * time.Millisecond,
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, s := range []string{"arc", "rf", "peterson", "lock", "arc-nofastpath", "arc-nohint", "seqlock", "leftright"} {
		if _, err := ParseAlgorithm(s); err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", s, err)
		}
	}
	if _, err := ParseAlgorithm("mutex"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestNewRegisterFactories(t *testing.T) {
	cfg := register.Config{MaxReaders: 2, MaxValueSize: 64}
	for _, alg := range []Algorithm{AlgARC, AlgARCNoFast, AlgARCNoHint, AlgRF, AlgPeterson, AlgLock, AlgSeqlock, AlgLeftRight} {
		r, err := NewRegister(alg, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if err := r.Writer().Write([]byte("x")); err != nil {
			t.Fatalf("%s: write: %v", alg, err)
		}
	}
	if _, err := NewRegister("bogus", cfg); err == nil {
		t.Fatal("bogus algorithm constructed")
	}
}

func TestAlgorithmLimits(t *testing.T) {
	if AlgRF.MaxReaders() != 58 {
		t.Fatalf("RF limit = %d", AlgRF.MaxReaders())
	}
	if AlgARC.MaxReaders() < 1<<31 {
		t.Fatalf("ARC limit = %d, want ≥ 2^31", AlgARC.MaxReaders())
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{Algorithm: AlgARC, Threads: 1}); err == nil {
		t.Error("Threads=1 accepted")
	}
	if _, err := Run(RunConfig{Algorithm: AlgRF, Threads: 60,
		Duration: time.Millisecond, Warmup: time.Millisecond}); err == nil {
		t.Error("59 RF readers accepted")
	}
}

func TestRunAllAlgorithmsSmoke(t *testing.T) {
	for _, alg := range []Algorithm{AlgARC, AlgRF, AlgPeterson, AlgLock} {
		cfg := quickCfg(alg, 4)
		cfg.Duration = 150 * time.Millisecond
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.WriteOps == 0 {
			// A short window on an oversubscribed CI host can deschedule
			// the writer for the whole measurement; retry once with a
			// wider window before declaring failure.
			cfg.Duration = 500 * time.Millisecond
			if res, err = Run(cfg); err != nil {
				t.Fatalf("%s (retry): %v", alg, err)
			}
		}
		if res.ReadOps == 0 {
			t.Errorf("%s: no reads measured", alg)
		}
		if res.WriteOps == 0 {
			t.Errorf("%s: no writes measured", alg)
		}
		if res.Mops() <= 0 {
			t.Errorf("%s: throughput %v", alg, res.Mops())
		}
		if res.Elapsed <= 0 {
			t.Errorf("%s: elapsed %v", alg, res.Elapsed)
		}
	}
}

func TestRunProcessingMode(t *testing.T) {
	cfg := quickCfg(AlgARC, 3)
	cfg.Mode = workload.Processing
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sink == 0 {
		t.Error("processing mode produced no checksum traffic")
	}
}

func TestRunWithSteal(t *testing.T) {
	cfg := quickCfg(AlgARC, 3)
	cfg.StealFraction = 0.5
	cfg.StealSlice = 100 * time.Microsecond
	cfg.Duration = 150 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steal.Steals == 0 {
		t.Error("steal-enabled run recorded no steal events")
	}
}

func TestRunLatencySampling(t *testing.T) {
	cfg := quickCfg(AlgARC, 3)
	cfg.LatencySample = 16
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadLat.Count() == 0 {
		t.Error("latency sampling recorded nothing")
	}
}

func TestRunStatsPlumbed(t *testing.T) {
	res, err := Run(quickCfg(AlgARC, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadStat.Ops == 0 {
		t.Error("reader stats not collected")
	}
	if res.WriteStat.Ops == 0 {
		t.Error("writer stats not collected")
	}
	// ARC under a hot writer still fast-paths a large share of reads.
	if res.ReadStat.FastPath == 0 {
		t.Error("no fast-path reads recorded for ARC")
	}

	resRF, err := Run(quickCfg(AlgRF, 4))
	if err != nil {
		t.Fatal(err)
	}
	if resRF.ReadStat.RMW != resRF.ReadStat.Ops {
		t.Errorf("RF reads=%d rmw=%d; RF must pay one RMW per read",
			resRF.ReadStat.Ops, resRF.ReadStat.RMW)
	}
}

func TestFigureByID(t *testing.T) {
	for _, id := range []string{"fig1", "fig2", "fig3", "1", "2", "3", "processing", "ablation"} {
		if _, err := FigureByID(id); err != nil {
			t.Errorf("FigureByID(%q): %v", id, err)
		}
	}
	if _, err := FigureByID("fig9"); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestFigureScale(t *testing.T) {
	f := Fig1().Scale(8, 20*time.Millisecond, 5*time.Millisecond)
	for _, th := range f.Threads {
		if th > 8 {
			t.Fatalf("thread %d above cap", th)
		}
	}
	if f.Duration != 20*time.Millisecond || f.Warmup != 5*time.Millisecond {
		t.Fatal("scale did not apply windows")
	}
	// Scaling below the smallest sweep entry still leaves one point.
	f3 := Fig3().Scale(8, time.Millisecond, time.Millisecond)
	if len(f3.Threads) != 1 || f3.Threads[0] != 8 {
		t.Fatalf("fig3 scaled threads = %v", f3.Threads)
	}
}

func TestFigureRunAndRender(t *testing.T) {
	f := Figure{
		ID:         "test",
		Caption:    "smoke figure",
		Algorithms: []Algorithm{AlgARC, AlgRF},
		Threads:    []int{2, 3},
		Sizes:      []int{256},
		Mode:       workload.Dummy,
		Duration:   30 * time.Millisecond,
		Warmup:     5 * time.Millisecond,
	}
	var progressed int
	data, err := f.Run(func(done, total int, r Row) { progressed++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) != 4 {
		t.Fatalf("cells = %d, want 4", len(data.Rows))
	}
	if progressed != 4 {
		t.Fatalf("progress callbacks = %d", progressed)
	}
	var series int
	for _, c := range data.Rows {
		if c.Err != nil {
			t.Fatalf("unexpected infeasible cell: %v", c.Err)
		}
		if c.Get("mops").Value <= 0 {
			t.Fatalf("cell %s/%v has zero throughput", c.Get("algorithm").Text, c.Get("threads").Value)
		}
		if c.Get("algorithm").Text == string(AlgARC) && c.Get("size").Value == 256 {
			series++
		}
	}
	if series != 2 {
		t.Fatalf("series length %d", series)
	}

	var tbl strings.Builder
	data.RenderTable(&tbl)
	for _, want := range []string{"smoke figure", "threads", "arc", "rf", "256B"} {
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, tbl.String())
		}
	}
	var csv strings.Builder
	data.RenderCSV(&csv)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 5 { // header + 4 cells
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[0], "figure,size,threads,algorithm,writers,mops") {
		t.Fatalf("csv header = %q", lines[0])
	}
}

// Infeasible cells (RF beyond 58 readers) must be recorded, not fatal —
// the paper's Figure 3 note.
func TestFigureInfeasibleCells(t *testing.T) {
	f := Figure{
		ID:         "cap",
		Algorithms: []Algorithm{AlgRF},
		Threads:    []int{100},
		Sizes:      []int{64},
		Duration:   5 * time.Millisecond,
		Warmup:     time.Millisecond,
	}
	data, err := f.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) != 1 || data.Rows[0].Err == nil {
		t.Fatalf("expected one infeasible cell, got %+v", data.Rows)
	}
	var tbl strings.Builder
	data.RenderTable(&tbl)
	if !strings.Contains(tbl.String(), "n/a") {
		t.Fatalf("table does not mark infeasible cell:\n%s", tbl.String())
	}
}

func TestRMWComparison(t *testing.T) {
	rep, err := RunRMWComparison([]int{3}, 0, 512, 40*time.Millisecond, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (arc, arc-nofastpath, rf)", len(rep.Rows))
	}
	perRead := map[Algorithm]float64{}
	for _, r := range rep.Rows {
		perRead[Algorithm(r.Get("algorithm").Text)] = r.Get("rmw_per_read").Value
		if r.Get("algorithm").Text == string(AlgARCNoFast) && r.Get("fastpath_pct").Value != 0 {
			t.Errorf("ablated ARC shows fast-path reads")
		}
	}
	if rf := perRead[AlgRF]; rf < 0.999 {
		t.Errorf("RF rmw/read = %v, want 1", rf)
	}
	if arc := perRead[AlgARC]; arc >= perRead[AlgRF] {
		t.Errorf("ARC rmw/read %v not below RF %v — the paper's central claim",
			arc, perRead[AlgRF])
	}
	var sb strings.Builder
	rep.RenderTable(&sb)
	if !strings.Contains(sb.String(), "rmw/read") {
		t.Fatalf("render missing header:\n%s", sb.String())
	}
}

func TestFmtSize(t *testing.T) {
	cases := map[int]string{
		64:         "64B",
		4096:       "4KB",
		131072:     "128KB",
		1 << 20:    "1MB",
		3*1024 ^ 1: "", // placeholder replaced below
	}
	delete(cases, 3*1024^1)
	for n, want := range cases {
		if got := fmtSize(n); got != want {
			t.Errorf("fmtSize(%d) = %q, want %q", n, got, want)
		}
	}
	if got := fmtSize(1000); got != "1000B" {
		t.Errorf("fmtSize(1000) = %q", got)
	}
}

func TestLatencyComparison(t *testing.T) {
	rep, err := RunLatencyComparison(
		[]Algorithm{AlgARC, AlgLock}, 3, 512, 0,
		40*time.Millisecond, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.Get("read_samples").Value == 0 {
			t.Errorf("%s: no read latency samples", r.Get("algorithm").Text)
		}
	}
	var sb strings.Builder
	rep.RenderTable(&sb)
	for _, want := range []string{"read p99", "arc", "lock"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, sb.String())
		}
	}
}
