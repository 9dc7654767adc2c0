package regmap

// Per-key memory: what a key costs once created and read, what the Stats
// tree says it costs, and the lazy-gate choice behind both.

import (
	"fmt"
	"runtime"
	"testing"

	"arcreg/internal/arc"
	"arcreg/internal/register"
)

// heapGrowth runs build between two collections and returns how many
// live heap bytes it left behind.
func heapGrowth(build func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

func footprintKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
	}
	return keys
}

// TestPerKeyFootprint bounds what a created and read key costs: 10k
// keys with 64-B dynamic values, read once each through one reader,
// must leave at most 800 B of live heap per key. With every register
// padded like a standalone one (808-B header with an embedded padded
// gate, 288-B slots) the same map costs ~2,500 B per key. The rewritten
// case writes every key 8 more times and reads it after every second
// write — a key rewritten faster than it is read, as under uniform Sets
// beside skewed Gets — under the same bound. Its unread writes cycle
// through all N+2 slots; W3 releases each retired buffer no reader
// acquired, so a key keeps only buffers a reader can reach (~875 B per
// key when every slot kept its last buffer).
func TestPerKeyFootprint(t *testing.T) {
	const nkeys, bound = 10_000, 800
	for _, rewrites := range []int{0, 8} {
		t.Run(fmt.Sprintf("rewrites=%d", rewrites), func(t *testing.T) {
			keys := footprintKeys(nkeys)
			val := make([]byte, 64)
			var m *Map
			var rd *Reader
			grew := heapGrowth(func() {
				m = newMap(t, Config{Shards: 8, MaxReaders: 2, DynamicValues: true})
				setAll := func() {
					for _, k := range keys {
						if err := m.Set(k, val); err != nil {
							t.Fatal(err)
						}
					}
				}
				getAll := func() {
					for _, k := range keys {
						if _, err := rd.Get(k); err != nil {
							t.Fatal(err)
						}
					}
				}
				setAll()
				var err error
				if rd, err = m.NewReader(); err != nil {
					t.Fatal(err)
				}
				getAll()
				for i := range rewrites {
					setAll()
					if i%2 == 1 {
						getAll()
					}
				}
			})
			perKey := float64(grew) / nkeys
			t.Logf("%.0f B per key (%d keys, MaxReaders 2, 64-B values, one reader, %d rewrites)", perKey, nkeys, rewrites)
			if perKey > bound {
				t.Fatalf("a created and read key costs %.0f B of heap after %d rewrites, want <= %d", perKey, rewrites, bound)
			}
			runtime.KeepAlive(m)
			runtime.KeepAlive(rd)
		})
	}
}

// TestMapStatsMem checks the Stats tree's "mem" node against measured
// heap growth: with empty values, the node's components — registers,
// fixed value buffers, writer slot tables, the estimated key index,
// directory logs — must add up to within 15% of what building the map
// allocated. The fixed-buffer case also rewrites every key 8 times and
// reads it through one reader after every second rewrite, as
// TestPerKeyFootprint does, which grows each key's published prefix to
// 3 slots. Then a spike: a second reader pins a version the first does
// not, and each prefix grows to N+2 = 4 slots, which the node must count
// as 4 buffers per key. Then both readers read after every write for 8
// writes, and trims take two free slots off each prefix's top, so each
// key keeps 2 slots (the current one and the one the writer alternates
// with) and 2 buffers, which the node must count exactly, where counting
// only growth would read 4.
func TestMapStatsMem(t *testing.T) {
	const nkeys = 10_000
	for _, tc := range []struct {
		cfg      Config
		rewrites int
		buffers  uint64 // fixed value buffers per key
	}{
		{cfg: Config{Shards: 8, MaxReaders: 2, DynamicValues: true}},
		{cfg: Config{Shards: 8, MaxReaders: 4, DynamicValues: true}},
		{cfg: Config{Shards: 8, MaxReaders: 2, MaxValueSize: 32}, rewrites: 8, buffers: 2},
	} {
		cfg := tc.cfg
		t.Run(fmt.Sprintf("readers=%d,dynamic=%v", cfg.MaxReaders, cfg.DynamicValues), func(t *testing.T) {
			keys := footprintKeys(nkeys)
			var m *Map
			var peak uint64
			grew := heapGrowth(func() {
				m = newMap(t, cfg)
				setAll := func() {
					for _, k := range keys {
						if err := m.Set(k, nil); err != nil {
							t.Fatal(err)
						}
					}
				}
				setAll()
				if tc.rewrites == 0 {
					return
				}
				rd, err := m.NewReader()
				if err != nil {
					t.Fatal(err)
				}
				defer rd.Close()
				getAll := func(rd *Reader) {
					for _, k := range keys {
						if _, err := rd.Get(k); err != nil {
							t.Fatal(err)
						}
					}
				}
				for i := range tc.rewrites {
					setAll()
					if i%2 == 1 {
						getAll(rd)
					}
				}
				// The spike: a second reader pins a version the first
				// does not, and two more writes need slots past both, so
				// every key's prefix grows to N+2 = 4 slots. Then both
				// read after every write, and the prefixes shrink back.
				rd2, err := m.NewReader()
				if err != nil {
					t.Fatal(err)
				}
				defer rd2.Close()
				setAll()
				getAll(rd)
				setAll()
				getAll(rd2)
				setAll()
				setAll()
				peak = valueBuffers(t, m)
				for range 8 {
					setAll()
					getAll(rd)
					getAll(rd2)
				}
			})
			sn := m.Stats()
			mem := sn.Child("mem")
			if mem == nil {
				t.Fatalf("Stats has no mem node:\n%s", sn.String())
			}
			total, _ := mem.Get("total")
			var sum uint64
			for _, c := range []string{"registers", "value_buffers", "slot_tables", "key_index_est", "dir_logs"} {
				v, ok := mem.Get(c)
				if !ok {
					t.Fatalf("mem node lacks %q:\n%s", c, mem.String())
				}
				sum += v
			}
			if sum != total {
				t.Fatalf("mem components sum to %d, total says %d", sum, total)
			}
			_, buf := arc.Footprint(register.Config{MaxReaders: cfg.MaxReaders, MaxValueSize: cfg.MaxValueSize},
				arc.Options{DynamicBuffers: cfg.DynamicValues})
			bufs, _ := mem.Get("value_buffers")
			if bufs != tc.buffers*nkeys*uint64(buf) {
				t.Fatalf("value_buffers = %d B, want %d keys × %d buffers × %d B", bufs, nkeys, tc.buffers, buf)
			}
			if tc.rewrites > 0 {
				t.Logf("value_buffers %d B at the spike, %d B once the readers moved on", peak, bufs)
				if peak != 4*nkeys*uint64(buf) || bufs >= peak {
					t.Fatalf("value_buffers = %d B at the spike and %d B after it, want %d keys × 4 buffers × %d B and then less",
						peak, bufs, nkeys, buf)
				}
			}
			ratio := float64(total) / float64(grew)
			t.Logf("mem total %d B vs heap growth %d B (%.3f)\n%s", total, grew, ratio, mem.String())
			if ratio < 0.85 || ratio > 1.15 {
				t.Fatalf("mem total %d B is %.0f%% of measured heap growth %d B, want within 15%%",
					total, 100*ratio, grew)
			}
			runtime.KeepAlive(m)
		})
	}
}

// valueBuffers reads the mem node's value_buffers.
func valueBuffers(t *testing.T, m *Map) uint64 {
	t.Helper()
	sn := m.Stats()
	v, ok := sn.Child("mem").Get("value_buffers")
	if !ok {
		t.Fatal("mem node lacks value_buffers")
	}
	return v
}

// TestStatsInstallNoGate: a key's notify gate belongs to the first
// waiter, so Sets, Gets, Map.Stats and FanRelays — none of which waits
// — must leave every value register without one. A FanRelays written as
// Notifier().Gate().Fanned() would allocate a padded gate per key on
// every walk.
func TestStatsInstallNoGate(t *testing.T) {
	m := newMap(t, Config{Shards: 8, MaxReaders: 2, DynamicValues: true})
	keys := footprintKeys(1000)
	for _, k := range keys {
		if err := m.Set(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		rd, err := m.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		for _, k := range keys {
			if _, err := rd.Get(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Stats()
	if n := m.FanRelays(); n != 0 {
		t.Fatalf("FanRelays = %d with no watcher", n)
	}
	installed := 0
	for _, sh := range m.shards {
		for _, reg := range sh.wregs {
			if reg.Notifier().Gated() != nil {
				installed++
			}
		}
	}
	if installed != 0 {
		t.Fatalf("%d of %d value registers have a gate installed with no waiter", installed, len(keys))
	}
}
