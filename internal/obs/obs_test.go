package obs

import (
	"expvar"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"arcreg/internal/metrics"
)

func TestCellPublishAndLoad(t *testing.T) {
	var c Cell
	if c.Load() != 0 || c.Local() != 0 {
		t.Fatal("zero value not zero")
	}
	c.Add(3)
	c.Add(4)
	if c.Load() != 7 || c.Local() != 7 {
		t.Fatalf("Load = %d, Local = %d, want 7", c.Load(), c.Local())
	}
	c.Store(100)
	if c.Load() != 100 || c.Local() != 100 {
		t.Fatalf("Store not reflected: load=%d local=%d", c.Load(), c.Local())
	}
}

// TestCellConcurrentReads: one owner advancing, many readers loading —
// readers must only ever see monotonically nondecreasing values. Run
// under -race this also proves the publish idiom is race-free.
func TestCellConcurrentReads(t *testing.T) {
	var c Cell
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for !stop.Load() {
				v := c.Load()
				if v < last {
					t.Errorf("cell regressed: %d after %d", v, last)
					return
				}
				last = v
			}
		}()
	}
	for i := 0; i < 100_000; i++ {
		c.Add(1)
	}
	stop.Store(true)
	wg.Wait()
	if c.Load() != 100_000 {
		t.Fatalf("final = %d, want 100000", c.Load())
	}
}

func TestHistMirrorsHistogram(t *testing.T) {
	var h Hist
	var want metrics.Histogram
	for _, ns := range []uint64{1, 17, 1000, 250_000, 3} {
		h.Record(ns)
		want.Record(ns)
	}
	got := h.Snapshot()
	if got.Count() != want.Count() || got.Sum() != want.Sum() ||
		got.Min() != want.Min() || got.Max() != want.Max() {
		t.Fatalf("snapshot mismatch: got %v want %v", got.String(), want.String())
	}
	for i := 0; i < metrics.NumBuckets; i++ {
		if got.Bucket(i) != want.Bucket(i) {
			t.Fatalf("bucket %d: got %d want %d", i, got.Bucket(i), want.Bucket(i))
		}
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
}

func TestHistRecordSince(t *testing.T) {
	var h Hist
	h.RecordSince(100, 350)
	h.RecordSince(350, 100) // clock went backwards: clamp to 0
	s := h.Snapshot()
	if s.Count() != 2 || s.Max() != 250 || s.Min() != 0 {
		t.Fatalf("got count=%d min=%d max=%d", s.Count(), s.Min(), s.Max())
	}
}

func TestSnapshotTree(t *testing.T) {
	root := Snapshot{Name: "map"}
	root.Put("epoch", 42).Put("keys", 7)
	root.Put("epoch", 43) // update in place, no duplicate
	var lat metrics.Histogram
	lat.Record(1000)
	root.PutHist("wakeup_latency", lat)
	root.Children = append(root.Children, Snapshot{Name: "shard0"})
	root.Child("shard0").Put("cgen", 2)

	if v, ok := root.Get("epoch"); !ok || v != 43 {
		t.Fatalf("epoch = %d,%v", v, ok)
	}
	if len(root.Stats) != 2 {
		t.Fatalf("duplicate stat appended: %v", root.Stats)
	}
	if root.Child("missing") != nil {
		t.Fatal("Child(missing) != nil")
	}
	if v, ok := root.Child("shard0").Get("cgen"); !ok || v != 2 {
		t.Fatalf("child cgen = %d,%v", v, ok)
	}

	text := root.String()
	for _, want := range []string{"map:", "epoch", "43", "shard0:", "cgen", "wakeup_latency"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text dump missing %q:\n%s", want, text)
		}
	}

	js := root.JSON()
	for _, want := range []string{`"name":"map"`, `"epoch":43`, `"keys":7`, `"name":"shard0"`, `"wakeup_latency"`, `"count":1`} {
		if !strings.Contains(js, want) {
			t.Fatalf("JSON missing %q:\n%s", want, js)
		}
	}
	// Determinism: two renderings must be byte-identical.
	if js != root.JSON() {
		t.Fatal("JSON rendering not deterministic")
	}
}

func TestVarIsExpvarCompatible(t *testing.T) {
	src := SourceFunc(func() Snapshot {
		s := Snapshot{Name: "reg"}
		s.Put("epoch", 9)
		return s
	})
	var v expvar.Var = Var{Source: src}
	out := v.String()
	if !strings.Contains(out, `"epoch":9`) {
		t.Fatalf("expvar payload missing counter: %s", out)
	}
	if (Var{}).String() != "{}" {
		t.Fatal("nil-source Var should render {}")
	}
}
