package regmap

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"arcreg/internal/notify"
)

// TestMapStatsShape pins the quiescent Stats tree: map totals agree
// with the per-shard children and with WriteStats' quiescent view.
func TestMapStatsShape(t *testing.T) {
	m := newMap(t, Config{Shards: 2, MaxReaders: 2, MaxValueSize: 64})
	for i := 0; i < 8; i++ {
		if err := m.Set(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Delete("k0"); err != nil {
		t.Fatal(err)
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}

	sn := m.Stats()
	get := func(name string) uint64 {
		v, ok := sn.Get(name)
		if !ok {
			t.Fatalf("map node missing %q:\n%s", name, sn.String())
		}
		return v
	}
	if get("live_keys") != 7 {
		t.Fatalf("live_keys = %d, want 7", get("live_keys"))
	}
	if get("creates") != 8 || get("deletes") != 1 {
		t.Fatalf("creates/deletes = %d/%d, want 8/1", get("creates"), get("deletes"))
	}
	if get("compactions") != uint64(m.Shards()) {
		t.Fatalf("compactions = %d, want %d", get("compactions"), m.Shards())
	}
	if get("shards") != uint64(m.Shards()) {
		t.Fatalf("shards = %d", get("shards"))
	}
	ws := m.WriteStats()
	if get("dir_bytes") != ws.DirBytes {
		t.Fatalf("dir_bytes = %d, WriteStats says %d", get("dir_bytes"), ws.DirBytes)
	}

	// Children: the watcher aggregate plus one node per shard, each
	// internally consistent (cgen == compactions).
	if sn.Child("watchers") == nil {
		t.Fatalf("no watchers child:\n%s", sn.String())
	}
	var shardSum uint64
	for si := 0; si < m.Shards(); si++ {
		node := sn.Child(fmt.Sprintf("shard%d", si))
		if node == nil {
			t.Fatalf("no shard%d child", si)
		}
		cgen, _ := node.Get("cgen")
		comp, _ := node.Get("compactions")
		if cgen != comp {
			t.Fatalf("shard%d: cgen %d != compactions %d", si, cgen, comp)
		}
		lk, _ := node.Get("live_keys")
		shardSum += lk
	}
	if shardSum != 7 {
		t.Fatalf("shard live_keys sum = %d, want 7", shardSum)
	}
}

// TestMapStatsDuringCompact is the Stats-vs-Compact race audit: a
// walker hammers Map.Stats while churn against a shrunken directory
// ceiling forces continual auto-compaction epochs. Every accepted
// snapshot must be internally consistent — cgen == compactions per
// shard (the two cells bump together exactly once per compact, and the
// validated collect must never tear across that publication) — and the
// per-shard directory epoch and compaction counters must be monotone
// across snapshots.
func TestMapStatsDuringCompact(t *testing.T) {
	restore := SetDirCapacity(512)
	defer restore()
	m := newMap(t, Config{Shards: 1, MaxReaders: 2, MaxValueSize: 32})

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errc := make(chan error, 4)

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch, lastComp uint64
			for ctx.Err() == nil {
				sn := m.Stats()
				node := sn.Child("shard0")
				if node == nil {
					errc <- fmt.Errorf("stats lost shard0")
					return
				}
				cgen, _ := node.Get("cgen")
				comp, _ := node.Get("compactions")
				if cgen != comp {
					errc <- fmt.Errorf("torn stats: cgen %d != compactions %d", cgen, comp)
					return
				}
				epoch, _ := node.Get("dir_epoch")
				if epoch < lastEpoch || comp < lastComp {
					errc <- fmt.Errorf("stats regressed: epoch %d<%d or compactions %d<%d",
						epoch, lastEpoch, comp, lastComp)
					return
				}
				lastEpoch, lastComp = epoch, comp
			}
		}()
	}

	// Writer: delete/recreate churn that overflows the 512-byte ceiling
	// and forces auto-compaction epochs mid-walk.
	const keys = 4
	var ver uint64
	key := func(i int) string { return fmt.Sprintf("churn-%d", i) }
	for i := 0; i < keys; i++ {
		ver++
		if err := m.Set(key(i), verVal(ver)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for round := 0; time.Now().Before(deadline); round++ {
		i := round % keys
		if err := m.Delete(key(i)); err != nil {
			t.Fatalf("round %d: Delete: %v", round, err)
		}
		ver++
		if err := m.Set(key(i), verVal(ver)); err != nil {
			t.Fatalf("round %d: Set: %v", round, err)
		}
	}
	cancel()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if sn := m.Stats(); true {
		comp, _ := sn.Get("compactions")
		if comp == 0 {
			t.Fatal("churn forced no compaction — the race was never exercised")
		}
	}
}

// TestWatchStatsLedgerOnMap drives a single-key watch through a burst
// of publications consumed in one delivery and checks the backpressure
// ledger: observed ≤ published always, conflation counts the skipped
// publications, and the tracker exposes the population while the watch
// is live.
//
// The schedule is fixed, not raced: the consumer holds each delivery
// until the test acks it. With the watcher parked, one Set wakes it and
// it delivers v1; the other 49 Sets land while it is held inside that
// yield, so its next delivery is v50 and the 48 publications between
// are conflated. The count can read 49: Map.Set wakes the key's gate
// before it bumps the shard epoch, so the watcher may charge v1 to the
// frame before it, and v50's epoch jump then spans 49.
func TestWatchStatsLedgerOnMap(t *testing.T) {
	m := newMap(t, Config{Shards: 1, MaxReaders: 2, MaxValueSize: 64})
	if err := m.Set("k", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	got := make(chan []byte)
	ack := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v, err := range rd.Watch(ctx, "k") {
			if err != nil {
				return
			}
			select {
			case got <- append([]byte(nil), v...):
			case <-ctx.Done():
				return
			}
			select {
			case <-ack:
			case <-ctx.Done():
				return
			}
		}
	}()
	// Runs before the deferred rd.Close, on failure too: the watcher
	// must be gone before its handle closes.
	defer func() {
		cancel()
		<-done
	}()
	next := func(want string) {
		t.Helper()
		select {
		case v := <-got:
			if string(v) != want {
				t.Fatalf("delivered %q, want %q", v, want)
			}
		case <-done:
			t.Fatalf("watch ended before delivering %q", want)
		}
	}
	release := func() {
		t.Helper()
		select {
		case ack <- struct{}{}:
		case <-done:
			t.Fatal("watch ended while holding a delivery")
		}
	}

	next("v0")
	release()
	// Wait for the watcher's leaf to arm on the key register's wakeup
	// tree, so the first Set wakes a parked watcher. (Reading the
	// writer-side index here is safe: this goroutine is the shard
	// writer.)
	sh := m.shards[m.ShardOf("k")]
	vtree := sh.wregs[sh.index["k"]].Notifier().Fan(keyFanArity, keyFanDepth)
	for {
		if armed, _ := vtree.Stats().Get("leaves_armed"); armed > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	const burst = 50
	set := func(i int) {
		t.Helper()
		if err := m.Set("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	set(1)
	next("v1")
	for i := 2; i <= burst; i++ {
		set(i)
	}
	release()
	next(fmt.Sprintf("v%d", burst))

	// The watcher is held inside its third yield: live, its ledger
	// attached.
	if n := m.WatchTracker().Watchers(); n != 1 {
		t.Fatalf("live watchers = %d, want 1", n)
	}
	m.WatchTracker().Each(func(ws *notify.WatchStats) {
		if o, p := ws.Observed(), ws.Published(); o > p {
			t.Errorf("observed %d > published %d", o, p)
		}
	})
	// Ack the last delivery so the ledger records it, then end the
	// session: its totals fold into the tracker's retired sums.
	release()
	cancel()
	<-done
	if n := m.WatchTracker().Watchers(); n != 0 {
		t.Fatalf("watchers after exit = %d", n)
	}
	sn := m.WatchTracker().Stats()
	delivered, _ := sn.Get("delivered")
	conflated, _ := sn.Get("conflated")
	wakeups, _ := sn.Get("wakeups")
	if delivered != 3 {
		t.Fatalf("delivered = %d, want 3:\n%s", delivered, sn.String())
	}
	if conflated < burst-2 || conflated > burst-1 {
		t.Fatalf("conflated = %d, want %d or %d:\n%s", conflated, burst-2, burst-1, sn.String())
	}
	if wakeups == 0 {
		t.Fatal("watcher parked through a burst without a wakeup")
	}
}

// walkRMW is the reference Reader.Stats' running RMW tally must match:
// the sum over every handle the reader has opened — directory, live
// per-key, displaced, and those a decode commit closed (summed per shard
// as they close) — of the RMW that handle executed. Stats itself never
// walks; this O(keys touched) sum exists only here.
func walkRMW(r *Reader) uint64 {
	var n uint64
	for si := range r.shards {
		rs := &r.shards[si]
		if rs.dirRd != nil {
			n += rs.dirRd.ReadStats().RMW
		}
		for _, h := range rs.handles {
			if h != nil {
				n += h.ReadStats().RMW
			}
		}
		n += rs.retiredRMW
		for _, d := range rs.displaced {
			n += d.h.ReadStats().RMW
		}
	}
	return n
}

// TestStatsRMWTallyMatchesWalk pins the O(1) RMW tally to the handle
// walk at every point where a reader's handles execute RMW: first
// touch, hot Gets, a value change, a foreign-shard create, a
// delete/recreate that retires a handle, a compaction rebase, a
// Snapshot that opens handles, a corrupt latch holding a staged
// displacement and its repair, and Close's releases. A seeded run of
// mixed operations then checks the same equality after every step.
func TestStatsRMWTallyMatchesWalk(t *testing.T) {
	m := newMap(t, Config{Shards: 2, MaxReaders: 2, MaxValueSize: 32})
	set := func(k, v string) {
		t.Helper()
		if err := m.Set(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	del := func(k string) {
		t.Helper()
		if err := m.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	const hot = "hot"
	si := m.ShardOf(hot)
	keyOn := func(prefix string, same bool) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("%s-%d", prefix, i)
			if (m.ShardOf(k) == si) == same {
				return k
			}
		}
	}
	foreign, sibling := keyOn("foreign", false), keyOn("sibling", true)
	set(hot, "v1")
	set(sibling, "s")

	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	get := func(k string) {
		t.Helper()
		if _, err := rd.Get(k); err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
	}
	// check compares tally and walk, and whether the stage moved the
	// walk at all — so no stage passes by executing nothing.
	var last uint64
	check := func(stage string, moved bool) {
		t.Helper()
		got, want := rd.Stats().RMW, walkRMW(rd)
		if got != want {
			t.Fatalf("%s: Stats().RMW = %d, handle walk = %d", stage, got, want)
		}
		if (want != last) != moved {
			t.Fatalf("%s: walk went %d -> %d, want moved=%v", stage, last, want, moved)
		}
		last = want
	}
	check("new reader", false)

	get(hot)
	check("first touch", true)
	for i := 0; i < 50; i++ {
		get(hot)
	}
	check("hot gets", false)

	set(hot, "v2")
	get(hot)
	check("value change", true)

	set(foreign, "f")
	get(hot)
	get(foreign)
	check("foreign-shard create", true)

	del(hot)
	if _, err := rd.Get(hot); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Get after delete = %v, want ErrKeyNotFound", err)
	}
	set(hot, "v3")
	get(hot)
	if rd.shards[si].retiredN == 0 {
		t.Fatal("recreate retired no handle: the leg never exercised retirement")
	}
	check("delete/recreate", true)

	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	get(hot)
	get(foreign)
	check("compact", true)

	if _, err := rd.Snapshot(); err != nil {
		t.Fatal(err)
	}
	check("snapshot", true) // opens the never-read sibling's handle

	// latch recreates the hot key, then corrupts the publication
	// carrying the recreate: the decode stages the old handle's
	// displacement before it fails on the garbage entry, so the latched
	// reader holds a displaced handle.
	latch := func() {
		t.Helper()
		del(hot)
		set(hot, "v4")
		if err := m.InjectDirectoryCorruption(si); err != nil {
			t.Fatal(err)
		}
		if _, err := rd.Get(hot); !errors.Is(err, ErrShardCorrupt) {
			t.Fatalf("Get on corrupt shard = %v, want ErrShardCorrupt", err)
		}
		if len(rd.shards[si].displaced) == 0 {
			t.Fatal("corrupt decode staged no displacement")
		}
	}
	latch()
	check("corrupt latch", true)

	set(keyOn("repair", true), "r")
	get(hot)
	if st := rd.Stats(); st.Repairs != 1 {
		t.Fatalf("Repairs = %d, want 1", st.Repairs)
	}
	check("repair", true)

	// Close while latched, so its releases include a displaced handle.
	latch()
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	check("close", true)

	// Seeded mixed operations over a small key space, two readers, the
	// equality checked after every step.
	rng := rand.New(rand.NewSource(1))
	rds := make([]*Reader, 2)
	for i := range rds {
		if rds[i], err = m.NewReader(); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 2000; step++ {
		k := fmt.Sprintf("k%d", rng.Intn(12))
		r := rds[rng.Intn(len(rds))]
		switch op := rng.Intn(100); {
		case op < 55:
			if _, err := r.Get(k); err != nil && !errors.Is(err, ErrKeyNotFound) && !errors.Is(err, ErrShardCorrupt) {
				t.Fatalf("step %d: Get: %v", step, err)
			}
		case op < 80:
			set(k, fmt.Sprintf("v%d", step))
		case op < 90:
			if err := m.Delete(k); err != nil && !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("step %d: Delete: %v", step, err)
			}
		case op < 95:
			if _, err := r.Snapshot(); err != nil && !errors.Is(err, ErrShardCorrupt) {
				t.Fatalf("step %d: Snapshot: %v", step, err)
			}
		case op < 98:
			if err := m.Compact(); err != nil {
				t.Fatal(err)
			}
		default:
			if err := m.InjectDirectoryCorruption(rng.Intn(m.Shards())); err != nil {
				t.Fatal(err)
			}
		}
		for i, r := range rds {
			if got, want := r.Stats().RMW, walkRMW(r); got != want {
				t.Fatalf("step %d reader %d: Stats().RMW = %d, handle walk = %d", step, i, got, want)
			}
		}
	}
	for i, r := range rds {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := r.Stats().RMW, walkRMW(r); got != want {
			t.Fatalf("reader %d after Close: Stats().RMW = %d, handle walk = %d", i, got, want)
		}
	}
}
