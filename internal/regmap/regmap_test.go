package regmap

// Tests for the sharded snapshot map: shard-routing determinism,
// directory protocol (epoch, incremental decode, ordering), fresh-gated
// Get accounting, handle lifecycle, and the concurrent key-creation race
// (run under -race in CI).

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"arcreg/internal/register"
)

func newMap(t testing.TB, cfg Config) *Map {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestShardRoutingDeterminism pins the routing contract: ShardOf is a
// pure function of (key, shard count) — identical across Map instances
// and matching the stdlib FNV-1a reference.
func TestShardRoutingDeterminism(t *testing.T) {
	a := newMap(t, Config{Shards: 16, MaxReaders: 1})
	b := newMap(t, Config{Shards: 16, MaxReaders: 4, MaxValueSize: 123})
	keys := []string{"", "a", "key", "key-000001", "a longer key with spaces", "\x00\xff"}
	for _, k := range keys {
		if a.ShardOf(k) != b.ShardOf(k) {
			t.Errorf("ShardOf(%q) differs across instances: %d vs %d", k, a.ShardOf(k), b.ShardOf(k))
		}
		ref := fnv.New64a()
		ref.Write([]byte(k))
		if got, want := Hash(k), ref.Sum64(); got != want {
			t.Errorf("Hash(%q) = %d, stdlib fnv = %d", k, got, want)
		}
		if got := a.ShardOf(k); got != int(Hash(k)&15) {
			t.Errorf("ShardOf(%q) = %d, want %d", k, got, Hash(k)&15)
		}
	}
}

// TestShardCountRounding pins the power-of-two rounding and the default.
func TestShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		m := newMap(t, Config{Shards: tc.in, MaxReaders: 1})
		if got := m.Shards(); got != tc.want {
			t.Errorf("Shards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	if _, err := New(Config{Shards: -1, MaxReaders: 1}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := New(Config{MaxReaders: 0}); err == nil {
		t.Error("zero MaxReaders accepted")
	}
}

// TestDirectoryProtocol exercises the directory mechanics across many
// keys: epoch increments per key creation, readers decode incrementally,
// Keys/Len agree, and new keys are immediately visible with their first
// value (never key-without-value).
func TestDirectoryProtocol(t *testing.T) {
	m := newMap(t, Config{Shards: 4, MaxReaders: 2, MaxValueSize: 64})
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	if n, err := rd.Len(); err != nil || n != 0 {
		t.Fatalf("empty Len = %d, %v", n, err)
	}
	if _, err := rd.Get("nope"); err != ErrKeyNotFound {
		t.Fatalf("absent Get err = %v", err)
	}

	const nkeys = 100
	for i := 0; i < nkeys; i++ {
		key := fmt.Sprintf("k%03d", i)
		val := []byte(fmt.Sprintf("v%03d", i))
		if err := m.Set(key, val); err != nil {
			t.Fatal(err)
		}
		// The new key is visible to an existing reader immediately.
		got, err := rd.Get(key)
		if err != nil {
			t.Fatalf("Get(%q) after create: %v", key, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("Get(%q) = %q, want %q", key, got, val)
		}
	}
	if m.Len() != nkeys {
		t.Fatalf("Map.Len = %d", m.Len())
	}
	if n, _ := rd.Len(); n != nkeys {
		t.Fatalf("Reader.Len = %d", n)
	}
	keys, err := rd.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != nkeys {
		t.Fatalf("Keys len = %d", len(keys))
	}
	seen := map[string]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	for i := 0; i < nkeys; i++ {
		if !seen[fmt.Sprintf("k%03d", i)] {
			t.Fatalf("key k%03d missing from enumeration", i)
		}
	}
	// Directory epochs: one publication per key creation, summed across
	// shards; the shard's epoch equals its key count while add-only.
	ws := m.WriteStats()
	if ws.Keys != nkeys {
		t.Errorf("WriteStats.Keys = %d", ws.Keys)
	}
	if ws.Directory.Ops != nkeys {
		t.Errorf("Directory.Ops = %d, want %d", ws.Directory.Ops, nkeys)
	}
	for si, sh := range m.shards {
		if sh.epoch != uint64(len(sh.wregs)) {
			t.Errorf("shard %d epoch %d != %d keys", si, sh.epoch, len(sh.wregs))
		}
	}
	// A late reader decodes the whole directory at once.
	rd2, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd2.Close()
	got, err := rd2.Get("k042")
	if err != nil || string(got) != "v042" {
		t.Fatalf("late reader Get = %q, %v", got, err)
	}
}

// TestFreshGatedGetAccounting pins the acceptance criterion at the unit
// level: repeated Gets of an unchanged hot key execute zero RMW
// instructions and count as FastPath; an update costs exactly the ARC
// re-acquisition (2 RMW); a directory change re-decodes without
// touching other keys' handles.
func TestFreshGatedGetAccounting(t *testing.T) {
	m := newMap(t, Config{Shards: 2, MaxReaders: 1, MaxValueSize: 64})
	if err := m.Set("hot", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	if _, err := rd.Get("hot"); err != nil {
		t.Fatal(err)
	}
	base := rd.Stats()
	for i := 0; i < 100; i++ {
		if _, err := rd.Get("hot"); err != nil {
			t.Fatal(err)
		}
	}
	st := rd.Stats()
	if st.RMW != base.RMW {
		t.Errorf("hot Gets executed %d RMW", st.RMW-base.RMW)
	}
	if st.FastPath-base.FastPath != 100 {
		t.Errorf("fast-path Gets = %d, want 100", st.FastPath-base.FastPath)
	}
	if st.DirRefreshes != base.DirRefreshes {
		t.Errorf("hot Gets refreshed the directory %d times", st.DirRefreshes-base.DirRefreshes)
	}

	// Value update: one release + one acquire on the key's register.
	if err := m.Set("hot", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, err := rd.Get("hot")
	if err != nil || string(v) != "v2" {
		t.Fatalf("post-update Get = %q, %v", v, err)
	}
	after := rd.Stats()
	if got := after.RMW - st.RMW; got != 2 {
		t.Errorf("post-update Get executed %d RMW, want 2", got)
	}

	// Misses on an unchanged directory are one-load fast paths.
	preMiss := rd.Stats()
	for i := 0; i < 10; i++ {
		if _, err := rd.Get("absent"); err != ErrKeyNotFound {
			t.Fatal(err)
		}
	}
	postMiss := rd.Stats()
	if postMiss.Misses-preMiss.Misses != 10 {
		t.Errorf("misses = %d, want 10", postMiss.Misses-preMiss.Misses)
	}
	if postMiss.RMW != preMiss.RMW {
		t.Errorf("misses executed %d RMW", postMiss.RMW-preMiss.RMW)
	}

	// A key creation on the other shard refreshes that directory but
	// leaves the hot key's fast path intact.
	other := "spill-0"
	for i := 0; m.ShardOf(other) == m.ShardOf("hot"); i++ {
		other = fmt.Sprintf("spill-%d", i)
	}
	if err := m.Set(other, []byte("x")); err != nil {
		t.Fatal(err)
	}
	preHot := rd.Stats()
	if _, err := rd.Get("hot"); err != nil {
		t.Fatal(err)
	}
	if got := rd.Stats(); got.RMW != preHot.RMW {
		t.Errorf("hot Get after foreign-shard create executed %d RMW", got.RMW-preHot.RMW)
	}
}

// TestViewValidityAcrossOtherKeys pins the documented aliasing rule: a
// view stays valid across Gets of other keys (only a Get of the same
// key, or Close, moves its handle).
func TestViewValidityAcrossOtherKeys(t *testing.T) {
	m := newMap(t, Config{Shards: 2, MaxReaders: 1, MaxValueSize: 64})
	m.Set("a", []byte("alpha"))
	m.Set("b", []byte("beta"))
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	va, err := rd.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := rd.Get("b"); err != nil {
			t.Fatal(err)
		}
	}
	if string(va) != "alpha" {
		t.Fatalf("view of a corrupted to %q by Gets of b", va)
	}
}

// TestReaderCapacityAndClose pins the handle lifecycle: MaxReaders
// enforced, capacity recycled on Close, closed handles error, and every
// component register (directories and keys) reports zero live handles
// after all readers close.
func TestReaderCapacityAndClose(t *testing.T) {
	m := newMap(t, Config{Shards: 2, MaxReaders: 2, MaxValueSize: 32})
	m.Set("k1", []byte("v"))
	m.Set("k2", []byte("v"))

	a, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewReader(); err != register.ErrTooManyReaders {
		t.Fatalf("over-capacity NewReader: %v", err)
	}
	for _, rd := range []*Reader{a, b} {
		if _, err := rd.Get("k1"); err != nil {
			t.Fatal(err)
		}
		if _, err := rd.Get("k2"); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != register.ErrReaderClosed {
		t.Fatalf("double Close: %v", err)
	}
	if _, err := a.Get("k1"); err != register.ErrReaderClosed {
		t.Fatalf("Get after Close: %v", err)
	}
	if _, err := a.Keys(); err != register.ErrReaderClosed {
		t.Fatalf("Keys after Close: %v", err)
	}
	c, err := m.NewReader()
	if err != nil {
		t.Fatalf("NewReader after Close: %v", err)
	}
	b.Close()
	c.Close()
	if got := m.LiveReaders(); got != 0 {
		t.Fatalf("LiveReaders = %d after close", got)
	}
	for si, sh := range m.shards {
		if got := sh.dir.LiveReaders(); got != 0 {
			t.Fatalf("shard %d directory leaked %d handles", si, got)
		}
		for i, reg := range sh.wregs {
			if got := reg.LiveReaders(); got != 0 {
				t.Fatalf("shard %d key %d leaked %d handles", si, i, got)
			}
		}
	}
}

// TestValueSizeBound pins ErrValueTooLarge on both the update and the
// key-creation path, without corrupting the map.
func TestValueSizeBound(t *testing.T) {
	m := newMap(t, Config{Shards: 1, MaxReaders: 1, MaxValueSize: 8})
	if err := m.Set("new", make([]byte, 9)); err == nil {
		t.Fatal("oversized create accepted")
	}
	if m.Len() != 0 {
		t.Fatalf("failed create left %d keys", m.Len())
	}
	if err := m.Set("k", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("k", make([]byte, 9)); err == nil {
		t.Fatal("oversized update accepted")
	}
	rd, _ := m.NewReader()
	defer rd.Close()
	if v, err := rd.Get("k"); err != nil || string(v) != "ok" {
		t.Fatalf("Get after rejected update = %q, %v", v, err)
	}
}

// TestDynamicValues exercises the exact-size allocation variant end to
// end.
func TestDynamicValues(t *testing.T) {
	m := newMap(t, Config{Shards: 2, MaxReaders: 1, MaxValueSize: 1 << 20, DynamicValues: true})
	rd, _ := m.NewReader()
	defer rd.Close()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%d", i%4)
		val := bytes.Repeat([]byte{byte(i)}, 1+i*100)
		if err := m.Set(key, val); err != nil {
			t.Fatal(err)
		}
		got, err := rd.Get(key)
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("round %d: %v", i, err)
		}
	}
}

// TestConcurrentKeyCreation is the race test of the acceptance criteria:
// per-shard writer goroutines create and update keys concurrently while
// readers Get hot keys, enumerate, and chase just-created keys across
// shards. Run with -race (CI does).
func TestConcurrentKeyCreation(t *testing.T) {
	const (
		shards  = 4
		readers = 3
		perKind = 200
	)
	m := newMap(t, Config{Shards: shards, MaxReaders: readers, MaxValueSize: 64})
	// Pre-assign each writer goroutine the keys of one shard, honoring
	// the per-shard single-writer contract while creating keys on every
	// shard concurrently.
	keysByShard := make([][]string, shards)
	filled := 0
	for i := 0; filled < shards; i++ {
		k := fmt.Sprintf("key-%06d", i)
		si := m.ShardOf(k)
		if len(keysByShard[si]) < perKind {
			keysByShard[si] = append(keysByShard[si], k)
			if len(keysByShard[si]) == perKind {
				filled++
			}
		}
	}
	if err := m.Set("hot", []byte("genesis")); err != nil {
		t.Fatal(err)
	}
	hotShard := m.ShardOf("hot")

	var wg sync.WaitGroup
	errs := make(chan error, shards+readers)
	for si := 0; si < shards; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for i, k := range keysByShard[si] {
					if err := m.Set(k, []byte(fmt.Sprintf("s%dv%dr%d", si, i, round))); err != nil {
						errs <- err
						return
					}
					if si == hotShard && i%16 == 0 {
						if err := m.Set("hot", []byte(fmt.Sprintf("hot-%d-%d", round, i))); err != nil {
							errs <- err
							return
						}
					}
				}
			}
		}(si)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rd, err := m.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		rg.Add(1)
		go func(rd *Reader, r int) {
			defer rg.Done()
			defer rd.Close()
			lastLen := 0
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := rd.Get("hot"); err != nil {
					errs <- fmt.Errorf("reader %d hot: %w", r, err)
					return
				}
				// Chase a key that may not exist yet: either outcome is
				// legal, errors are not.
				k := keysByShard[i%shards][(i/7)%perKind]
				if _, err := rd.Get(k); err != nil && err != ErrKeyNotFound {
					errs <- fmt.Errorf("reader %d chase %q: %w", r, k, err)
					return
				}
				if i%64 == 0 {
					n, err := rd.Len()
					if err != nil {
						errs <- err
						return
					}
					if n < lastLen {
						errs <- fmt.Errorf("reader %d saw key count regress: %d after %d", r, n, lastLen)
						return
					}
					lastLen = n
				}
			}
		}(rd, r)
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if want := shards*perKind + 1; m.Len() != want {
		t.Fatalf("Len = %d, want %d", m.Len(), want)
	}
	// Post-quiescence: every key readable with its final round-1 value.
	rd, _ := m.NewReader()
	defer rd.Close()
	for si := 0; si < shards; si++ {
		for i, k := range keysByShard[si] {
			v, err := rd.Get(k)
			if err != nil {
				t.Fatalf("final Get(%q): %v", k, err)
			}
			if want := fmt.Sprintf("s%dv%dr1", si, i); string(v) != want {
				t.Fatalf("final Get(%q) = %q, want %q", k, v, want)
			}
		}
	}
}

// TestMapFreshProbe pins Reader.Fresh's contract (mirrors the register
// Reader.Fresh conformance clause at map level, per key).
func TestMapFreshProbe(t *testing.T) {
	m := newMap(t, Config{Shards: 2, MaxReaders: 1, MaxValueSize: 32})
	m.Set("k", []byte("v1"))
	rd, _ := m.NewReader()
	defer rd.Close()
	if rd.Fresh("k") {
		t.Error("never-read key reports fresh")
	}
	if _, err := rd.Get("k"); err != nil {
		t.Fatal(err)
	}
	if !rd.Fresh("k") {
		t.Error("just-read key not fresh")
	}
	m.Set("k", []byte("v2"))
	if rd.Fresh("k") {
		t.Error("stale key reports fresh")
	}
	if rd.Fresh("absent") {
		t.Error("absent key reports fresh")
	}
}

// TestGetToken pins what a Token proves: equal tokens mean the same
// publication of the same key incarnation, whichever operations moved
// the per-key handle in between, and a compaction that changed nothing
// for the key keeps the token.
func TestGetToken(t *testing.T) {
	m := newMap(t, Config{Shards: 2, MaxReaders: 1, DynamicValues: true})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	token := func(rd *Reader, key, want string) Token {
		t.Helper()
		v, tok, err := rd.GetToken(key)
		must(err)
		if string(v) != want {
			t.Fatalf("GetToken(%q) = %q, want %q", key, v, want)
		}
		return tok
	}
	must(m.Set("k", []byte("v1")))
	must(m.Set("other", []byte("o")))
	rd, err := m.NewReader()
	must(err)
	defer rd.Close()

	t1 := token(rd, "k", "v1")
	if t2 := token(rd, "k", "v1"); t2 != t1 {
		t.Fatalf("unchanged key: token %+v then %+v", t1, t2)
	}
	if o := token(rd, "other", "o"); o.Index() == t1.Index() {
		t.Fatalf("two live keys share token index %d", o.Index())
	}

	// A GetFresh that already moved the handle onto v2 leaves the next
	// GetFresh reporting no change; the token still differs from t1.
	must(m.Set("k", []byte("v2")))
	if _, changed, err := rd.GetFresh("k"); err != nil || !changed {
		t.Fatalf("GetFresh after Set: changed=%v err=%v", changed, err)
	}
	if _, changed, err := rd.GetFresh("k"); err != nil || changed {
		t.Fatalf("second GetFresh: changed=%v err=%v", changed, err)
	}
	t3 := token(rd, "k", "v2")
	if t3 == t1 {
		t.Fatal("token unchanged across a publication another Get observed first")
	}

	must(m.Compact())
	if t4 := token(rd, "k", "v2"); t4 != t3 {
		t.Fatalf("compaction with no publication to k moved its token: %+v -> %+v", t3, t4)
	}

	// Re-creation in the recycled slot: same index, new incarnation.
	must(m.Delete("k"))
	if _, _, err := rd.GetToken("k"); err != ErrKeyNotFound {
		t.Fatalf("GetToken after Delete: %v", err)
	}
	must(m.Set("k", []byte("v2")))
	t5 := token(rd, "k", "v2")
	if t5.Index() != t3.Index() || t5 == t3 {
		t.Fatalf("re-created key: index %d -> %d, equal tokens %v", t3.Index(), t5.Index(), t5 == t3)
	}
}
