package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"arcreg"
)

const (
	catalogKeys   = 40000
	catalogShards = 8
	catalogSetups = 3
	// One read in catalogReadSample is timed; one in catalogSpanSample
	// is also split into regmap and codec spans when traced. One write
	// in catalogWriteSample is kept as a latency sample.
	catalogReadSample  = 64
	catalogSpanSample  = 256
	catalogWriteSample = 8
	catalogNote        = 64   // note bytes per item: items encode to about 100 bytes
	addKeyWindow       = 1000 // keys averaged for addkey_first/last
	zipfS              = 1.1
	seqLen             = 1 << 20 // pre-drawn key choices, replayed cyclically
)

// keySet draws n distinct keys with the given prefix.
func keySet(rng *rand.Rand, prefix string, n int) []string {
	seen := make(map[string]bool, n)
	keys := make([]string, 0, n)
	for len(keys) < n {
		k := fmt.Sprintf("%s%012x", prefix, rng.Int63()&(1<<48-1))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// zipfSeq draws n key indices by Zipf(1.1) popularity. Ranks map to key
// indices through a seeded permutation, so the hot keys differ by seed;
// hot is the index of the most popular key.
func zipfSeq(rng *rand.Rand, keys, n int) (seq []int32, hot int32) {
	perm := rng.Perm(keys)
	z := rand.NewZipf(rng, zipfS, 1, uint64(keys-1))
	seq = make([]int32, n)
	for i := range seq {
		seq[i] = int32(perm[z.Uint64()])
	}
	return seq, int32(perm[0])
}

// printable returns n random letters, digits and spaces.
func printable(rng *rand.Rand, n int) []byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 "
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return b
}

type catalogRig struct {
	m  *arcreg.MapOf[Item]
	rd *arcreg.MapOfReader[Item]
}

// buildCatalog is the catalog's set-up: the map, the preload of every
// key, and the reader, which Gets every key once so that its per-key
// handles exist before the measurement window. With addKey set, each
// key's first Set is timed into it.
func buildCatalog(keys []string, item func(i int, ver uint64) Item, addKey *spanLog) (*catalogRig, error) {
	m, err := arcreg.NewMap[Item](
		arcreg.WithShards(catalogShards),
		arcreg.WithReaders(2),
		arcreg.WithCodec(arcreg.Binary[Item]()),
		arcreg.WithDynamicValues(),
		arcreg.WithTrace(),
	)
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		var t0 int64
		if addKey != nil {
			t0 = now()
		}
		if err := m.Set(k, item(i, 1)); err != nil {
			return nil, err
		}
		if addKey != nil {
			addKey.add(addKey.newID(), 0, spanAddKey, t0, now())
		}
	}
	rd, err := m.NewReader()
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		it, err := rd.Get(k)
		if err != nil {
			return nil, err
		}
		if err := checkItem(k, it, 1); err != nil {
			return nil, err
		}
	}
	return &catalogRig{m: m, rd: rd}, nil
}

func runCatalog(p params, traced bool) (*outcome, error) {
	o := newOutcome()
	nkeys, setups := catalogKeys, catalogSetups
	if p.short {
		nkeys, setups = 2000, 1
	}
	rng := rand.New(rand.NewSource(p.seed))
	keys := keySet(rng, "sku-", nkeys)
	notes := string(printable(rng, 4096))
	noteAt := make([]int32, nkeys)
	for i := range noteAt {
		noteAt[i] = int32(rng.Intn(len(notes) - catalogNote))
	}
	item := func(i int, ver uint64) Item {
		off := int(noteAt[i])
		return Item{Key: keys[i], Version: ver, Price: uint64(i)*100 + ver%100, Note: notes[off : off+catalogNote]}
	}
	readSeq, _ := zipfSeq(rng, nkeys, seqLen)
	writeSeq := make([]int32, seqLen)
	for i := range writeSeq {
		writeSeq[i] = int32(rng.Intn(nkeys))
	}

	var (
		rig    *catalogRig
		addKey *spanLog
	)
	setupS, heapAdded, err := setUp(setups, func() {
		rig = nil
		if traced {
			addKey = newSpanLog(3, nkeys)
		}
	}, func() (err error) {
		rig, err = buildCatalog(keys, item, addKey)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	o.e2e["setup_s"] = setupS
	o.layer["regmap.heap_bytes_per_key"] = float64(heapAdded) / float64(nkeys)

	var rlog, wlog *spanLog
	if traced {
		rlog = newSpanLog(1, capFor(2*4e6/catalogSpanSample, p.window))
		wlog = newSpanLog(2, capFor(2*1e6/catalogSpanSample, p.window))
	}
	raw := rig.rd.Reader()
	cd := rig.m.Codec()
	rawMap := rig.m.Map()
	tracer := rawMap.Tracer()
	recorded0, _ := tracer.Stats().Get("recorded")
	rs0 := rig.rd.ReadStats()
	rt0 := readRuntime()

	start := now() + int64(time.Millisecond)
	end := start + int64(p.window)
	writeLat := newSamples(capFor(1e6/catalogWriteSample, p.window))
	writeCuts := newSlicer(start, p.window, throughputCuts)
	var writes, writeFails uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		version := make([]uint64, nkeys)
		for i := range version {
			version[i] = 1
		}
		for now() < start {
		}
		for pos := 0; ; pos = (pos + 1) & (seqLen - 1) {
			i := writeSeq[pos]
			version[i]++
			it := item(int(i), version[i])
			t0 := now()
			if t0 >= end {
				return
			}
			it.Stamp = t0
			var err error
			if traced && writes%catalogSpanSample == 0 {
				var blob []byte
				blob, err = cd.Encode(it)
				t1 := now()
				if err == nil {
					err = rawMap.Set(it.Key, blob)
				}
				t2 := now()
				wlog.add(wlog.newID(), 0, spanCodecEncode, t0, t1)
				wlog.add(wlog.newID(), 0, spanRegmapSet, t1, t2)
			} else {
				err = rig.m.Set(it.Key, it)
			}
			done := now()
			writes++
			if err != nil {
				writeFails++
				continue
			}
			if writes%catalogWriteSample == 0 {
				writeLat.add(done - t0)
			}
			writeCuts.add(done, 1)
		}
	}()

	readLat := newSamples(capFor(4e6/catalogReadSample, p.window))
	observe := newSamples(capFor(300e3, p.window))
	readCuts := newSlicer(start, p.window, throughputCuts)
	last := make([]uint64, nkeys)
	for i := range last {
		last[i] = 1
	}
	var reads, readFails uint64
	pos := 0
	for now() < start {
	}
	for t := start; t < end; t = now() {
		for range 64 {
			i := readSeq[pos]
			pos = (pos + 1) & (seqLen - 1)
			key := keys[i]
			var (
				it  Item
				err error
			)
			switch {
			case traced && reads%catalogSpanSample == 0:
				t0 := now()
				var v []byte
				v, err = raw.Get(key)
				t1 := now()
				if err == nil {
					it, err = cd.Decode(v)
				}
				t2 := now()
				readLat.add(t2 - t0)
				rlog.add(rlog.newID(), 0, spanRegmapGet, t0, t1)
				rlog.add(rlog.newID(), 0, spanCodecDecode, t1, t2)
			case reads%catalogReadSample == 0:
				t0 := now()
				it, err = rig.rd.Get(key)
				readLat.add(now() - t0)
			default:
				it, err = rig.rd.Get(key)
			}
			reads++
			if err != nil {
				readFails++
				continue
			}
			if err := checkItem(key, it, last[i]); err != nil {
				o.audit.fail(err)
				continue
			}
			if it.Version > last[i] {
				last[i] = it.Version
				observe.add(now() - it.Stamp)
			}
		}
		readCuts.add(now(), 64)
	}
	wg.Wait()

	rt1 := readRuntime()
	rs := rig.rd.ReadStats()
	recorded1, _ := tracer.Stats().Get("recorded")
	o.attempted, o.failed = reads+writes, readFails+writeFails

	rd, wd, od := readLat.dist(), writeLat.dist(), observe.dist()
	o.e2e["reads_per_s"] = readCuts.rate()
	o.e2e["writes_per_s"] = writeCuts.rate()
	o.e2e["read_p50_us"] = rd.quantile(0.5) / 1e3
	o.e2e["write_p50_us"] = wd.quantile(0.5) / 1e3
	o.e2e["observe_p50_us"] = od.quantile(0.5) / 1e3
	o.latency("read", rd)
	o.latency("write", wd)
	o.latency("observe", od)

	ops := rs.Ops - rs0.Ops
	o.layer["regmap.fastpath_share"] = share(rs.FastPath-rs0.FastPath, ops)
	o.layer["regmap.rmw_per_get"] = share(rs.RMW-rs0.RMW, ops)
	o.layer["trace.events_per_set"] = share(recorded1-recorded0, writes)
	runtimeLayer(o.layer, rt0, rt1, o.attempted)
	if traced {
		st := summarize(rlog, wlog)
		o.layer["regmap.get_ns"] = st.meanNs(spanRegmapGet)
		o.layer["codec.decode_ns"] = st.meanNs(spanCodecDecode)
		o.layer["regmap.set_ns"] = st.meanNs(spanRegmapSet)
		o.layer["codec.encode_ns"] = st.meanNs(spanCodecEncode)
		first, lastMean := firstLastMeans(addKey, spanAddKey, min(addKeyWindow, nkeys/2))
		o.layer["regmap.addkey_first_us"] = first / 1e3
		o.layer["regmap.addkey_last_us"] = lastMean / 1e3
		path := filepath.Join(p.spansDir, fmt.Sprintf("catalog-seed%d.tsv", p.seed))
		if err := writeSpans(path, addKey, rlog, wlog); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	// The map must still be reachable when the heap is read; the
	// benchmark's key choices, samples and spans must not be.
	readSeq, writeSeq, last, readLat, writeLat, observe = nil, nil, nil, nil, nil, nil
	rlog, wlog, addKey = nil, nil, nil
	o.e2e["heap_mb"] = float64(liveHeapBytes()) / (1 << 20)
	runtime.KeepAlive(rig)
	return o, nil
}
