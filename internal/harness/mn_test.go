package harness

// Tests for the (M,N) composite deployment: RunConfig.Writers plumbing,
// the mn figure, and the MN RMW accounting.

import (
	"strings"
	"testing"
	"time"

	"arcreg/internal/workload"
)

func TestParseMNAlgorithms(t *testing.T) {
	for _, s := range []string{"mn", "mn-nogate"} {
		a, err := ParseAlgorithm(s)
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", s, err)
		}
		if !a.IsMN() {
			t.Errorf("%s: IsMN() = false", a)
		}
	}
	if AlgARC.IsMN() {
		t.Error("arc reports IsMN")
	}
}

func TestRunWritersValidation(t *testing.T) {
	base := RunConfig{ValueSize: 256, Duration: 20 * time.Millisecond, Warmup: 5 * time.Millisecond}

	cfg := base
	cfg.Algorithm, cfg.Threads, cfg.Writers = AlgARC, 4, 2
	if _, err := Run(cfg); err == nil {
		t.Error("2 writers accepted for a (1,N) algorithm")
	}
	cfg = base
	cfg.Algorithm, cfg.Threads, cfg.Writers = AlgMN, 2, 2
	if _, err := Run(cfg); err == nil {
		t.Error("Threads == Writers accepted (no reader)")
	}
	cfg = base
	cfg.Algorithm, cfg.Threads, cfg.Writers = AlgMN, 3, -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative writer count accepted")
	}
}

func TestRunMNSmoke(t *testing.T) {
	for _, alg := range []Algorithm{AlgMN, AlgMNNoGate} {
		res, err := Run(RunConfig{
			Algorithm: alg,
			Threads:   4,
			Writers:   2,
			ValueSize: 256,
			Mode:      workload.Dummy,
			Duration:  150 * time.Millisecond,
			Warmup:    20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.ReadOps == 0 {
			t.Errorf("%s: no reads measured", alg)
		}
		if res.WriteOps == 0 {
			t.Errorf("%s: no writes measured", alg)
		}
		// Composite stats must be plumbed: reads happened, so the
		// protocol counters cannot stay zero.
		if res.ReadStat.Ops == 0 {
			t.Errorf("%s: composite ReadStats not aggregated", alg)
		}
		// Both writers contribute publish-side stats.
		if res.WriteStat.Ops == 0 {
			t.Errorf("%s: composite WriteStats not aggregated", alg)
		}
		if alg == AlgMNNoGate && res.ReadStat.FastPath != 0 {
			t.Errorf("mn-nogate counted %d fresh scans", res.ReadStat.FastPath)
		}
	}
}

func TestFigMNByID(t *testing.T) {
	fig, err := FigureByID("mn")
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "mn" || fig.Writers != 4 {
		t.Fatalf("FigMN = %+v", fig)
	}
	if len(fig.Algorithms) != 2 || fig.Algorithms[0] != AlgMN || fig.Algorithms[1] != AlgMNNoGate {
		t.Fatalf("FigMN algorithms = %v", fig.Algorithms)
	}
}

func TestFigMNRunAndRender(t *testing.T) {
	fig := FigMN()
	fig.Writers = 2
	fig.Threads = []int{2, 3} // 2 is infeasible (no reader), 3 runs
	fig.Sizes = []int{256}
	fig.Duration = 30 * time.Millisecond
	fig.Warmup = 5 * time.Millisecond
	data, err := fig.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var infeasible, measured int
	for _, c := range data.Rows {
		switch th := c.Get("threads").Value; {
		case th == 2 && c.Err != nil:
			infeasible++
		case th == 3 && c.Err == nil:
			measured++
		default:
			t.Errorf("unexpected cell %s threads=%v err=%v", c.Get("algorithm").Text, th, c.Err)
		}
	}
	if infeasible != 2 || measured != 2 {
		t.Fatalf("infeasible=%d measured=%d, want 2/2", infeasible, measured)
	}
	var sb strings.Builder
	data.RenderTable(&sb)
	if !strings.Contains(sb.String(), "writers=2") || !strings.Contains(sb.String(), "mn-nogate") {
		t.Fatalf("table missing MN columns:\n%s", sb.String())
	}
}

// TestFigMNWriterSweep pins the writer-count sweep axis: WriterCounts
// multiplies the cell grid, rows carry their M, infeasible (threads ≤ M)
// cells are recorded, and the rendered table labels rows by M.
func TestFigMNWriterSweep(t *testing.T) {
	fig := FigMN()
	fig.WriterCounts = []int{1, 2}
	fig.Threads = []int{3}
	fig.Sizes = []int{256}
	fig.Duration = 20 * time.Millisecond
	fig.Warmup = 5 * time.Millisecond
	data, err := fig.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) != 4 { // 2 writer counts × 1 thread × 2 algorithms
		t.Fatalf("cells = %d, want 4", len(data.Rows))
	}
	byM := map[int]int{}
	for _, c := range data.Rows {
		m := int(c.Get("writers").Value)
		if c.Err != nil {
			t.Errorf("cell %s th=%v M=%d infeasible: %v", c.Get("algorithm").Text, c.Get("threads").Value, m, c.Err)
		}
		byM[m]++
	}
	if byM[1] != 2 || byM[2] != 2 {
		t.Fatalf("cells per M = %v, want 2 each", byM)
	}
	var sb strings.Builder
	data.RenderTable(&sb)
	out := sb.String()
	for _, want := range []string{"writers=1,2", " M", "mn-nogate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	data.RenderCSV(&csv)
	if !strings.Contains(csv.String(), "mn,256,3,mn,2,") {
		t.Fatalf("csv missing M=2 row:\n%s", csv.String())
	}
}

// TestFigWriterSweepInfeasibleForSingleWriterAlg pins that sweeping M
// over a (1,N) algorithm records infeasible cells instead of failing.
func TestFigWriterSweepInfeasibleForSingleWriterAlg(t *testing.T) {
	f := Figure{
		ID:           "sweep-1n",
		Algorithms:   []Algorithm{AlgARC},
		Threads:      []int{4},
		Sizes:        []int{64},
		WriterCounts: []int{2},
		Duration:     5 * time.Millisecond,
		Warmup:       time.Millisecond,
	}
	data, err := f.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) != 1 || data.Rows[0].Err == nil {
		t.Fatalf("expected one infeasible cell, got %+v", data.Rows)
	}
}

func TestMNRMWComparison(t *testing.T) {
	rep, err := RunRMWComparison([]int{2, 4}, 2, 256, 40*time.Millisecond, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	// threads=2 leaves no reader and is skipped; threads=4 yields one row
	// per variant.
	var mnRows []Row
	for _, row := range rep.Rows {
		if Algorithm(row.Get("algorithm").Text).IsMN() {
			mnRows = append(mnRows, row)
		}
	}
	if len(mnRows) != 2 {
		t.Fatalf("rows = %d, want 2", len(mnRows))
	}
	for _, row := range mnRows {
		if row.Get("threads").Value != 4 {
			t.Errorf("row threads = %v", row.Get("threads").Value)
		}
		if row.Get("reads").Value == 0 {
			t.Errorf("%s: no reads accounted", row.Get("algorithm").Text)
		}
	}
	var sb strings.Builder
	rep.RenderTable(&sb)
	if !strings.Contains(sb.String(), "mn-nogate") {
		t.Fatalf("render missing mn rows:\n%s", sb.String())
	}
}
