package arcreg_test

// Facade-level tests for the observability surface: the Stats tree
// across the (1,N), (M,N) and map shapes, the watcher backpressure
// ledger recorded by parked Watch iterators, and the expvar export
// path (Observe / StatsVar).

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"strings"
	"testing"
	"time"

	"arcreg"
)

// TestRegStatsShape pins the (1,N) tree: the register node with its
// protocol gauges, the notify child with the publication epoch, and
// the watchers child (empty population).
func TestRegStatsShape(t *testing.T) {
	reg, err := arcreg.New[int](arcreg.WithReaders(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := reg.Set(i); err != nil {
			t.Fatal(err)
		}
	}
	sn := reg.Stats()
	if sn.Name != "register" {
		t.Fatalf("root name %q, want register", sn.Name)
	}
	if v, ok := sn.Get("slots"); !ok || v == 0 {
		t.Fatalf("slots = %d (ok=%v):\n%s", v, ok, sn.String())
	}
	nt := sn.Child("notify")
	if nt == nil {
		t.Fatalf("no notify child:\n%s", sn.String())
	}
	if epoch, _ := nt.Get("epoch"); epoch != 3 {
		t.Fatalf("notify epoch = %d, want 3", epoch)
	}
	w := sn.Child("watchers")
	if w == nil {
		t.Fatalf("no watchers child:\n%s", sn.String())
	}
	if live, _ := w.Get("live"); live != 0 {
		t.Fatalf("live watchers = %d, want 0", live)
	}
}

// TestMNRegStatsShape pins the (M,N) tree: composite gauges plus one
// child per ARC component.
func TestMNRegStatsShape(t *testing.T) {
	reg, err := arcreg.New[int](arcreg.WithWriters(2), arcreg.WithReaders(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Set(7); err != nil {
		t.Fatal(err)
	}
	sn := reg.Stats()
	if sn.Name != "mnreg" {
		t.Fatalf("root name %q, want mnreg", sn.Name)
	}
	if epoch, _ := sn.Get("epoch"); epoch == 0 {
		t.Fatalf("epoch = 0 after Set:\n%s", sn.String())
	}
	for i := 0; i < 2; i++ {
		if sn.Child(fmt.Sprintf("component%d", i)) == nil {
			t.Fatalf("no component%d child:\n%s", i, sn.String())
		}
	}
	if sn.Child("watchers") == nil {
		t.Fatalf("no watchers child:\n%s", sn.String())
	}
}

// TestRegWatchLedger drives a facade Watch through a burst consumed in
// one wakeup and checks the backpressure ledger surfaces in Reg.Stats:
// deliveries, conflation, wakeups, and a live watcher while the
// iterator runs.
func TestRegWatchLedger(t *testing.T) {
	reg, err := arcreg.New[int](arcreg.WithReaders(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Set(0); err != nil {
		t.Fatal(err)
	}
	rd, err := reg.NewReader()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got := make(chan int)
	go func() {
		defer close(got)
		for v, err := range rd.Watch(ctx) {
			if err != nil {
				return
			}
			select {
			case got <- v:
			case <-ctx.Done():
				return
			}
		}
	}()

	if v := <-got; v != 0 {
		t.Fatalf("first delivery %d", v)
	}
	// Wait until the watcher's ledger is attached (it is between
	// deliveries, blocked on the unbuffered channel send or parked).
	deadline := time.Now().Add(5 * time.Second)
	for {
		sn := reg.Stats()
		if w := sn.Child("watchers"); w != nil {
			if live, _ := w.Get("live"); live == 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("watcher ledger never attached")
		}
		time.Sleep(time.Millisecond)
	}

	// Publish a burst while the consumer cannot deliver: intermediate
	// publications conflate.
	const burst = 50
	for i := 1; i <= burst; i++ {
		if err := reg.Set(i); err != nil {
			t.Fatal(err)
		}
	}
	for v := range got {
		if v == burst {
			break
		}
	}

	sn := reg.Stats()
	w := sn.Child("watchers")
	if w == nil {
		t.Fatal("watchers child vanished")
	}
	if v, _ := w.Get("delivered"); v < 2 {
		t.Fatalf("delivered = %d, want ≥ 2", v)
	}
	if v, _ := w.Get("conflated"); v == 0 {
		t.Fatalf("burst of %d conflated nothing:\n%s", burst, w.String())
	}
	if v, _ := w.Get("wakeups"); v == 0 {
		t.Fatal("watcher parked through a burst without a wakeup")
	}

	cancel()
	for range got {
	}
	if sn := reg.Stats(); sn.Child("watchers") != nil {
		w := sn.Child("watchers")
		if live, _ := w.Get("live"); live != 0 {
			t.Fatalf("live watchers after exit = %d", live)
		}
		if retired, _ := w.Get("retired"); retired != 1 {
			t.Fatalf("retired watchers = %d, want 1", retired)
		}
	}
}

// TestObserveServesJSON pins the export path: Observe publishes a
// StatsVar whose String() is the JSON rendering of the live tree.
func TestObserveServesJSON(t *testing.T) {
	m, err := arcreg.NewMap[int](arcreg.WithShards(2), arcreg.WithReaders(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set("k", 1); err != nil {
		t.Fatal(err)
	}

	// expvar's registry is process-global and Publish panics on
	// duplicates, so use a name unique to this test binary run.
	name := fmt.Sprintf("arcreg-test-%d", time.Now().UnixNano())
	arcreg.Observe(name, m)
	v := expvar.Get(name)
	if v == nil {
		t.Fatalf("expvar.Get(%q) = nil", name)
	}
	var decoded struct {
		Name     string `json:"name"`
		Children []struct {
			Name string `json:"name"`
		} `json:"children"`
	}
	if err := json.Unmarshal([]byte(v.String()), &decoded); err != nil {
		t.Fatalf("expvar output is not JSON: %v\n%s", err, v.String())
	}
	if decoded.Name != "map" || len(decoded.Children) == 0 {
		t.Fatalf("expvar tree = %q with %d children, want the map's root", decoded.Name, len(decoded.Children))
	}

	// The text dump is the human-readable view of the same tree.
	var sb strings.Builder
	m.Stats().WriteText(&sb)
	if !strings.Contains(sb.String(), "live_keys") {
		t.Fatalf("text dump missing map counters:\n%s", sb.String())
	}
}
