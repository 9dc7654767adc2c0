package arcreg_test

// Benchmarks for the sharded snapshot map. BenchmarkMapGet is the
// acceptance benchmark: a Get of an unchanged hot key must report ~0
// rmw/get through map-level ReadStats — ARC's fresh-path economy
// surviving both the directory and the per-key layer. BenchmarkMapMiss
// prices the absent-key path (directory probe + hash lookup), and the
// remaining benchmarks cover updates, skewed multi-key reading, and the
// harness figure at smoke scale.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arcreg"
	"arcreg/internal/harness"
	"arcreg/internal/workload"
)

func benchMap(b *testing.B, keys int) (*arcreg.Map, []string) {
	b.Helper()
	m, err := arcreg.NewByteMap(arcreg.MapConfig{Shards: 16, MaxReaders: 2, MaxValueSize: 1024})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, keys)
	val := make2(1024)
	for i := range names {
		names[i] = workload.KeyName(i)
		if err := m.Set(names[i], val); err != nil {
			b.Fatal(err)
		}
	}
	return m, names
}

// BenchmarkMapGet is the steady-state hot path: the key and its shard
// directory are unchanged, so every Get is two atomic loads. The
// rmw/get metric (from map ReadStats) must be ~0.
func BenchmarkMapGet(b *testing.B) {
	m, names := benchMap(b, 64)
	rd, err := m.NewReader()
	if err != nil {
		b.Fatal(err)
	}
	defer rd.Close()
	hot := names[7]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Get(hot); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := rd.ReadStats()
	if st.Ops > 0 {
		b.ReportMetric(float64(st.RMW)/float64(st.Ops), "rmw/get")
		b.ReportMetric(100*float64(st.FastPath)/float64(st.Ops), "fastpath-%")
	}
}

// BenchmarkMapGetHotContended probes false sharing around a hot key.
// Register counters are unpadded, and keys created one after another
// get their registers and slot arrays allocated side by side, so the
// hot key's lines can sit beside, or be shared with, its neighbours'.
// RunParallel readers, each with its own MapReader, Get the hot key
// while one writer goroutine keeps Setting the 8 keys created just
// before it and the 8 created just after. The hot key never changes, so
// its Gets stay on the fast path (rmw/get ~0); ns/op shows what the
// neighbours' writes cost them.
func BenchmarkMapGetHotContended(b *testing.B) {
	const hot, span = 32, 8
	m, err := arcreg.NewByteMap(arcreg.MapConfig{
		Shards: 16, MaxReaders: runtime.GOMAXPROCS(0), MaxValueSize: 1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 2*hot)
	for i := range names {
		names[i] = workload.KeyName(i)
		if err := m.Set(names[i], make2(64)); err != nil {
			b.Fatal(err)
		}
	}
	neighbours := append(slices.Clone(names[hot-span:hot]), names[hot+1:hot+1+span]...)
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		val := make2(64)
		for i := 0; !stop.Load(); i++ {
			if err := m.Set(neighbours[i%len(neighbours)], val); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	var mu sync.Mutex
	var rmw, ops uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rd, err := m.NewReader()
		if err != nil {
			b.Error(err)
			return
		}
		defer rd.Close()
		for pb.Next() {
			if _, err := rd.Get(names[hot]); err != nil {
				b.Error(err)
				return
			}
		}
		st := rd.ReadStats()
		mu.Lock()
		rmw, ops = rmw+st.RMW, ops+st.Ops
		mu.Unlock()
	})
	b.StopTimer()
	stop.Store(true)
	<-done
	if ops > 0 {
		b.ReportMetric(float64(rmw)/float64(ops), "rmw/get")
	}
}

// BenchmarkMapMiss prices a Get of an absent key on an unchanged
// directory: one atomic load plus the hash lookup.
func BenchmarkMapMiss(b *testing.B) {
	m, _ := benchMap(b, 64)
	rd, err := m.NewReader()
	if err != nil {
		b.Fatal(err)
	}
	defer rd.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Get("absent-key"); err != arcreg.ErrKeyNotFound {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := rd.ReadStats()
	if st.Ops > 0 {
		b.ReportMetric(float64(st.RMW)/float64(st.Ops), "rmw/get")
	}
}

// BenchmarkMapGetZipf reads across 4096 keys under Zipf(1.2) popularity
// — the keyed figure's read body as a micro-benchmark.
func BenchmarkMapGetZipf(b *testing.B) {
	m, names := benchMap(b, 4096)
	rd, err := m.NewReader()
	if err != nil {
		b.Fatal(err)
	}
	defer rd.Close()
	choose := workload.NewKeyChooser(len(names), 1.2, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Get(names[choose.Next()]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := rd.ReadStats()
	if st.Ops > 0 {
		b.ReportMetric(float64(st.RMW)/float64(st.Ops), "rmw/get")
	}
}

// BenchmarkMapOfGet is the typed read rung: MapOfReader.Get of ~100-B
// Binary-encoded items, on one hot key of 4,096 and on Zipf(1.1) keys
// over 4,096 and 40,000, each alone and beside a writer that Sets
// uniformly chosen keys as fast as it can. decodes/get counts
// Codec.Decode calls per Get: below 1 by the share of Gets the reader
// served from earlier decodes. With a writer, allocs/op also counts the
// writer's allocations (the counter is process-wide).
func BenchmarkMapOfGet(b *testing.B) {
	for _, rc := range []struct {
		name string
		keys int
		hot  bool
	}{{"hot", 4096, true}, {"zipf/keys=4096", 4096, false}, {"zipf/keys=40000", 40000, false}} {
		cd := newCountCodec(arcreg.Binary[skuItem]())
		m, err := arcreg.NewMap[skuItem](arcreg.WithShards(8), arcreg.WithReaders(2),
			arcreg.WithCodec(cd), arcreg.WithDynamicValues())
		if err != nil {
			b.Fatal(err)
		}
		names := make([]string, rc.keys)
		items := make([]skuItem, rc.keys)
		for i := range names {
			names[i] = workload.KeyName(i)
			items[i] = newSKU(names[i], 1)
			if err := m.Set(names[i], items[i]); err != nil {
				b.Fatal(err)
			}
		}
		seq := []int{7}
		if !rc.hot {
			seq = make([]int, 1<<16)
			choose := workload.NewKeyChooser(rc.keys, 1.1, 42)
			for i := range seq {
				seq[i] = choose.Next()
			}
		}
		for _, writer := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/writer=%t", rc.name, writer), func(b *testing.B) {
				rd, err := m.NewReader()
				if err != nil {
					b.Fatal(err)
				}
				defer rd.Close()
				for _, k := range names { // create the per-key handles
					if _, err := rd.Get(k); err != nil {
						b.Fatal(err)
					}
				}
				var stop atomic.Bool
				var wg sync.WaitGroup
				if writer {
					wg.Add(1)
					go func() {
						defer wg.Done()
						choose := workload.NewKeyChooser(rc.keys, 0, 7)
						for ver := uint64(2); !stop.Load(); ver++ {
							i := choose.Next()
							it := items[i]
							it.Version = ver
							if err := m.Set(names[i], it); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				decodes := cd.decodes.Load()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := rd.Get(names[seq[i%len(seq)]]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				stop.Store(true)
				wg.Wait()
				b.ReportMetric(float64(cd.decodes.Load()-decodes)/float64(b.N), "decodes/get")
			})
		}
	}
}

// BenchmarkMapSet prices an update of an existing key (one ARC write:
// one copy, one RMW publish).
func BenchmarkMapSet(b *testing.B) {
	m, names := benchMap(b, 64)
	val := make2(1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Set(names[i&63], val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapAddKey prices key creation — register construction plus
// the shard directory append and re-publish — under dynamic value
// buffers, the configuration meant for large key counts, at two shard
// sizes. Each sub-benchmark fills a one-shard map with keys entries
// outside the timer, then times adds into it; after keys/4 adds the
// timer stops and a fresh map is filled, so every timed add lands in a
// shard holding keys to 5/4·keys entries whatever b.N is. Amortized
// O(1) key creation shows as the same ns/op and B/op at both sizes.
func BenchmarkMapAddKey(b *testing.B) {
	for _, keys := range []int{1024, 32768} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			names := make([]string, keys+keys/4)
			for i := range names {
				names[i] = fmt.Sprintf("grow-%09d", i)
			}
			val := []byte("first value")
			var m *arcreg.Map
			next := len(names)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if next == len(names) {
					b.StopTimer()
					var err error
					m, err = arcreg.NewByteMap(arcreg.MapConfig{
						Shards: 1, MaxReaders: 1, MaxValueSize: 1 << 20, DynamicValues: true,
					})
					if err != nil {
						b.Fatal(err)
					}
					for _, k := range names[:keys] {
						if err := m.Set(k, val); err != nil {
							b.Fatal(err)
						}
					}
					next = keys
					b.StartTimer()
				}
				if err := m.Set(names[next], val); err != nil {
					b.Fatal(err)
				}
				next++
			}
		})
	}
}

// BenchmarkMapSnapshot is the snapshot acceptance benchmark: a
// steady-state snapshot of an unchanged map must report ~0 rmw/get and
// zero retries — every per-key read is ARC's one-load fast path, and
// one validated pass certifies the whole map.
func BenchmarkMapSnapshot(b *testing.B) {
	for _, keys := range []int{64, 1024} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			m, names := benchMap(b, keys)
			_ = names
			rd, err := m.NewReader()
			if err != nil {
				b.Fatal(err)
			}
			defer rd.Close()
			if _, err := rd.Snapshot(); err != nil { // pay the first-pass acquisitions
				b.Fatal(err)
			}
			base := rd.ReadStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap, err := rd.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				if len(snap) != keys {
					b.Fatalf("snapshot has %d keys", len(snap))
				}
			}
			b.StopTimer()
			st := rd.ReadStats()
			b.ReportMetric(float64(st.RMW-base.RMW)/float64(b.N), "rmw/snapshot")
			b.ReportMetric(float64(st.SnapshotRetries-base.SnapshotRetries)/float64(b.N), "retries/snapshot")
			if st.RMW != base.RMW {
				b.Fatalf("steady-state snapshots executed %d RMW instructions", st.RMW-base.RMW)
			}
		})
	}
}

// BenchmarkMapDelete prices a delete/recreate cycle: two directory log
// appends and publications plus one register construction.
func BenchmarkMapDelete(b *testing.B) {
	m, names := benchMap(b, 64)
	val := make2(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := names[i&63]
		if err := m.Delete(k); err != nil {
			b.Fatal(err)
		}
		if err := m.Set(k, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigMap drives the harness keyed figure at bench scale;
// `arcbench -figure map` runs the full version.
func BenchmarkFigMap(b *testing.B) {
	var mops, rmwPerGet float64
	for b.Loop() {
		res, err := harness.RunMap(harness.MapRunConfig{
			Threads:   2,
			Keys:      256,
			ValueSize: 1024,
			Zipf:      1.2,
			Duration:  60 * time.Millisecond,
			Warmup:    10 * time.Millisecond,
			Seed:      5,
		})
		if err != nil {
			b.Fatal(err)
		}
		mops = res.Mops()
		rmwPerGet = res.RMWPerGet()
	}
	b.ReportMetric(mops, "Mops")
	b.ReportMetric(rmwPerGet, "rmw/get")
}
