package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSingleRunOutput(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-alg", "arc", "-nthreads", "3", "-size", "512",
		"-duration", "40ms", "-warmup", "10ms", "-latency-sample", "32",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"throughput:", "reads:", "writes:", "fast-path", "read latency:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// A single run takes -threads' first entry as its thread count, as the
// package doc's `arcbench -alg arc -threads 16 -size 32768` expects;
// -nthreads is only the default.
func TestSingleRunThreads(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-alg", "arc", "-threads", "2", "-size", "256", "-duration", "30ms", "-warmup", "10ms"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "arc threads=2 size=256 ") {
		t.Fatalf("single run ignored -threads 2:\n%s", sb.String())
	}
}

func TestFigureQuickWithCSV(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "out.csv")
	var sb strings.Builder
	err := run([]string{
		"-figure", "fig1", "-quick",
		"-threads", "2,3", "-sizes", "256",
		"-duration", "30ms", "-warmup", "5ms",
		"-csv", csv,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fig1") {
		t.Fatalf("missing table header:\n%s", sb.String())
	}
	blob, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(blob), "figure,size,threads,algorithm") {
		t.Fatalf("csv header wrong: %q", string(blob)[:60])
	}
	lines := strings.Count(strings.TrimSpace(string(blob)), "\n")
	if lines != 8 { // 2 threads × 1 size × 4 algorithms
		t.Fatalf("csv data lines = %d, want 8", lines)
	}
}

func TestRMWFigure(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "rmw.csv")
	var sb strings.Builder
	err := run([]string{"-figure", "rmw", "-threads", "2", "-sizes", "512",
		"-duration", "30ms", "-warmup", "5ms", "-writers", "2", "-csv", csv}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rmw/read") {
		t.Fatalf("missing rmw table:\n%s", sb.String())
	}
	// -sizes sets the one register size the figure measures.
	if !strings.Contains(sb.String(), "register size 512B") {
		t.Fatalf("rmw figure ignored -sizes 512:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "mn-nogate") {
		t.Fatalf("missing MN rmw rows:\n%s", sb.String())
	}
	// -csv covers the rmw figure: arc, arc-nofastpath and rf at 2
	// threads, then mn and mn-nogate at M=2 on the smallest feasible
	// deployment (3 threads).
	lines := csvLines(t, csv)
	if !strings.HasPrefix(lines[0], "figure,algorithm,waitfree,threads,writers,reads,") ||
		!strings.Contains(lines[0], "rmw_per_read") {
		t.Fatalf("rmw csv header wrong: %q", lines[0])
	}
	if len(lines) != 1+5 {
		t.Fatalf("rmw csv has %d data lines, want 5:\n%s", len(lines)-1, strings.Join(lines, "\n"))
	}
	if !strings.HasPrefix(lines[4], "rmw,mn,r+w,3,2,") {
		t.Fatalf("rmw csv lacks the mn row: %q", lines[4])
	}
}

// csvLines reads a CSV file the command wrote, failing on an empty one.
func csvLines(t *testing.T, path string) []string {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 {
		t.Fatalf("%s is empty", path)
	}
	return strings.Split(strings.TrimSpace(string(blob)), "\n")
}

func TestMNFigureQuick(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-figure", "mn", "-quick", "-sizes", "256",
		"-duration", "30ms", "-warmup", "5ms"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== mn:", "writers=4", "mn-nogate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mn figure output missing %q:\n%s", want, out)
		}
	}
}

func TestMNSingleRun(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-alg", "mn", "-writers", "2", "-nthreads", "4",
		"-size", "256", "-duration", "40ms", "-warmup", "10ms"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"mn threads=4 writers=2", "reads:", "writes:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mn single-run output missing %q:\n%s", want, out)
		}
	}
}

func TestMNWriterSweep(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-figure", "mn", "-writers", "1,2", "-threads", "3",
		"-sizes", "256", "-duration", "20ms", "-warmup", "5ms"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"writers=1,2", " M", "mn-nogate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mn writer sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestMapFigureQuick(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "map.csv")
	var sb strings.Builder
	err := run([]string{"-figure", "map", "-quick", "-threads", "2", "-keys", "8",
		"-duration", "30ms", "-warmup", "5ms", "-csv", csv}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== map:", "rmw/get", "keys"} {
		if !strings.Contains(out, want) {
			t.Fatalf("map figure output missing %q:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(blob), "figure,keys,threads,mops") {
		t.Fatalf("map csv header wrong: %q", string(blob))
	}
}

func TestMapSingleRun(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-alg", "map", "-nthreads", "2", "-size", "256",
		"-duration", "30ms", "-warmup", "5ms"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "map threads=2") {
		t.Fatalf("map single-run output:\n%s", sb.String())
	}
}

func TestLatencyFigure(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "latency.csv")
	var sb strings.Builder
	err := run([]string{"-figure", "latency", "-quick", "-threads", "2", "-sizes", "256", "-csv", csv}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "read p99") {
		t.Fatalf("missing latency table:\n%s", sb.String())
	}
	// -csv covers the latency figure: one row per algorithm, all seven
	// feasible at the one reader -threads 2 leaves, and every row at the
	// thread count -threads gave.
	lines := csvLines(t, csv)
	if !strings.HasPrefix(lines[0], "figure,algorithm,waitfree,threads,read_p50_ns,read_p99_ns,") {
		t.Fatalf("latency csv header wrong: %q", lines[0])
	}
	if len(lines) != 1+7 {
		t.Fatalf("latency csv has %d data lines, want 7:\n%s", len(lines)-1, strings.Join(lines, "\n"))
	}
	if !strings.HasPrefix(lines[1], "latency,arc,r+w,2,") {
		t.Fatalf("latency csv first row: %q", lines[1])
	}
	for _, l := range lines[1:] {
		if f := strings.Split(l, ","); len(f) < 4 || f[3] != "2" {
			t.Fatalf("latency csv row not at 2 threads: %q", l)
		}
	}
	if !strings.Contains(sb.String(), "size 256B") {
		t.Fatalf("latency figure ignored -sizes 256:\n%s", sb.String())
	}
}

func TestBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-figure", "fig9"}, &sb); err == nil {
		t.Error("unknown figure accepted")
	} else if !strings.Contains(err.Error(), "serve") {
		t.Errorf("unknown-figure error does not list every figure id: %v", err)
	}
	if err := run([]string{"-figure", "fig1", "-threads", "2,x"}, &sb); err == nil {
		t.Error("bad -threads list accepted")
	}
	if err := run([]string{"-figure", "watch", "-watchers", "1k,y"}, &sb); err == nil {
		t.Error("bad -watchers list accepted")
	}
	if err := run([]string{"-alg", "bogus"}, &sb); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run([]string{"-mode", "bogus", "-alg", "arc"}, &sb); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,3 ,")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	got, err = parseInts("1k, 10K,25")
	if err != nil || len(got) != 3 || got[0] != 1000 || got[1] != 10000 || got[2] != 25 {
		t.Fatalf("parseInts with k suffix = %v, %v", got, err)
	}
	if _, err := parseInts("2,x"); err == nil {
		t.Fatal("parseInts accepted a bad integer")
	}
}

// TestWatchFigureQuick smoke-runs the watch figure through the CLI and
// checks the backpressure columns reach the CSV: with the default slow
// consumer, the watch series must conflate publications.
func TestWatchFigureQuick(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "watch.csv")
	var sb strings.Builder
	err := run([]string{"-figure", "watch", "-quick", "-watchers", "2",
		"-duration", "150ms", "-warmup", "20ms", "-csv", csv}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"wakeup latency", "lag max", "conflated"} {
		if !strings.Contains(out, want) {
			t.Fatalf("watch figure output missing %q:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "lag_p50,lag_max,conflated,wakeups") {
		t.Fatalf("watch csv header missing backpressure columns: %q",
			strings.SplitN(string(blob), "\n", 2)[0])
	}
	// The watch series row (first data row) must show conflation: its
	// slow consumer parks through a fast publish cadence.
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if len(lines) < 2 {
		t.Fatalf("no csv rows:\n%s", string(blob))
	}
	fields := strings.Split(lines[1], ",")
	if len(fields) != 19 {
		t.Fatalf("csv row has %d fields, want 19: %q", len(fields), lines[1])
	}
	if fields[12] == "0" {
		t.Errorf("watch series conflated nothing: %q", lines[1])
	}
	// Publisher-overhead columns (appended after wakeups) must carry
	// real samples in the measured window.
	if fields[15] == "0" {
		t.Errorf("watch series recorded no publisher overhead: %q", lines[1])
	}
	// Flight-recorder stage columns: the traced watch series must show
	// cascade latency samples (fan tree wired through the recorder).
	if !strings.Contains(string(blob), "cascade_p99_ns,conflate_drops,flush_p99_ns") {
		t.Fatalf("watch csv header missing stage-breakdown columns: %q",
			strings.SplitN(string(blob), "\n", 2)[0])
	}
	if fields[16] == "0" {
		t.Errorf("watch series recorded no cascade latency: %q", lines[1])
	}
}
