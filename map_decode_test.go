package arcreg_test

// The typed map's decode cache: MapOfReader.Get returns an earlier
// decode only while the key's register handle has held the slot it was
// decoded from. The side-channel cases are the ones a cache keyed on
// GetFresh's changed report gets wrong: a byte Get, a Values step or a
// Snapshot moves the shared per-key handle onto the new publication, so
// the next typed Get sees changed == false although its cached decode
// is of the old one.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"arcreg"
)

// countCodec wraps a codec, counting decodes; while fail is set every
// decode fails.
type countCodec[T any] struct {
	arcreg.Codec[T]
	decodes *atomic.Int64
	fail    *atomic.Bool
}

var errInjectedDecode = errors.New("injected decode failure")

func newCountCodec[T any](c arcreg.Codec[T]) countCodec[T] {
	return countCodec[T]{Codec: c, decodes: new(atomic.Int64), fail: new(atomic.Bool)}
}

func (c countCodec[T]) Decode(p []byte) (T, error) {
	c.decodes.Add(1)
	if c.fail.Load() {
		var zero T
		return zero, errInjectedDecode
	}
	return c.Codec.Decode(p)
}

// skuItem is a catalog-style value: about 100 bytes under its Binary
// encoding, two strings beside three numbers.
type skuItem struct {
	Key     string
	Version uint64
	Stamp   int64
	Price   uint64
	Note    string
}

func (it *skuItem) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 32+len(it.Key)+len(it.Note))
	b = binary.AppendUvarint(b, uint64(len(it.Key)))
	b = append(b, it.Key...)
	b = binary.AppendUvarint(b, it.Version)
	b = binary.AppendVarint(b, it.Stamp)
	b = binary.AppendUvarint(b, it.Price)
	b = binary.AppendUvarint(b, uint64(len(it.Note)))
	return append(b, it.Note...), nil
}

func (it *skuItem) UnmarshalBinary(b []byte) error {
	str := func() (string, error) {
		n, k := binary.Uvarint(b)
		if k <= 0 || uint64(len(b)-k) < n {
			return "", errors.New("skuItem: truncated")
		}
		s := string(b[k : k+int(n)])
		b = b[k+int(n):]
		return s, nil
	}
	uv := func() uint64 {
		v, k := binary.Uvarint(b)
		b = b[max(k, 0):]
		return v
	}
	var err error
	if it.Key, err = str(); err != nil {
		return err
	}
	it.Version = uv()
	stamp, k := binary.Varint(b)
	b = b[max(k, 0):]
	it.Stamp = stamp
	it.Price = uv()
	it.Note, err = str()
	return err
}

func newSKU(key string, ver uint64) skuItem {
	return skuItem{Key: key, Version: ver, Price: ver * 100, Note: fmt.Sprintf("%-64s", key)}
}

// verItem is the battery's copy-safe value: its key and version.
type verItem struct {
	Key string
	Ver uint64
}

// bufferModes runs fn once over fixed per-key value buffers and once
// over dynamic (exact-size, per-Set) ones.
func bufferModes(t *testing.T, fn func(t *testing.T, opts ...arcreg.Option)) {
	t.Run("fixed", func(t *testing.T) { fn(t, arcreg.WithMaxValueSize(256)) })
	t.Run("dynamic", func(t *testing.T) { fn(t, arcreg.WithDynamicValues()) })
}

func newVerMap(t *testing.T, opts ...arcreg.Option) (*arcreg.MapOf[verItem], *arcreg.MapOfReader[verItem]) {
	t.Helper()
	m, err := arcreg.NewMap[verItem](append([]arcreg.Option{arcreg.WithShards(2), arcreg.WithReaders(3)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	return m, rd
}

func mustSet[T any](t *testing.T, m *arcreg.MapOf[T], key string, v T) {
	t.Helper()
	if err := m.Set(key, v); err != nil {
		t.Fatal(err)
	}
}

func wantVer(t *testing.T, rd *arcreg.MapOfReader[verItem], key string, ver uint64) {
	t.Helper()
	got, err := rd.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if got != (verItem{Key: key, Ver: ver}) {
		t.Fatalf("Get(%q) = %+v, want version %d", key, got, ver)
	}
}

// TestMapOfDecodeCacheSideChannels: a typed Get must return the new
// value after any other operation on the handle has already moved the
// key's register handle onto it.
func TestMapOfDecodeCacheSideChannels(t *testing.T) {
	sides := []struct {
		name string
		move func(*arcreg.MapOfReader[verItem]) error
	}{
		{"byte-get", func(rd *arcreg.MapOfReader[verItem]) error {
			_, err := rd.Reader().Get("k")
			return err
		}},
		{"values-step", func(rd *arcreg.MapOfReader[verItem]) error {
			// One step of the key's Watch stream: its first yield.
			for _, err := range rd.Watch(context.Background(), "k") {
				return err
			}
			return errors.New("Watch yielded nothing")
		}},
		{"snapshot", func(rd *arcreg.MapOfReader[verItem]) error {
			_, err := rd.Snapshot()
			return err
		}},
	}
	for _, side := range sides {
		t.Run(side.name, func(t *testing.T) {
			bufferModes(t, func(t *testing.T, opts ...arcreg.Option) {
				m, rd := newVerMap(t, opts...)
				for ver := uint64(1); ver <= 4; ver++ {
					mustSet(t, m, "k", verItem{"k", ver})
					if ver > 1 {
						if err := side.move(rd); err != nil {
							t.Fatal(err)
						}
					}
					wantVer(t, rd, "k", ver)
					wantVer(t, rd, "k", ver)
				}
			})
		})
	}
}

// TestMapOfDecodeCacheLifecycle: deletion, re-creation in the recycled
// slot, and compaction between Gets.
func TestMapOfDecodeCacheLifecycle(t *testing.T) {
	bufferModes(t, func(t *testing.T, opts ...arcreg.Option) {
		m, rd := newVerMap(t, opts...)
		for i := range 8 {
			mustSet(t, m, fmt.Sprint("other", i), verItem{fmt.Sprint("other", i), 1})
		}
		mustSet(t, m, "k", verItem{"k", 1})
		wantVer(t, rd, "k", 1)
		slots := func() (n uint64) {
			for _, shard := range m.Stats().Children {
				v, _ := shard.Get("slots")
				n += v
			}
			return n
		}
		before := slots()
		for ver := uint64(2); ver <= 6; ver += 2 {
			if err := m.Delete("k"); err != nil {
				t.Fatal(err)
			}
			if _, err := rd.Get("k"); !errors.Is(err, arcreg.ErrKeyNotFound) {
				t.Fatalf("Get after Delete: %v, want ErrKeyNotFound", err)
			}
			mustSet(t, m, "k", verItem{"k", ver})
			wantVer(t, rd, "k", ver)
			if err := m.Compact(); err != nil {
				t.Fatal(err)
			}
			wantVer(t, rd, "k", ver)
			mustSet(t, m, "k", verItem{"k", ver + 1})
			if err := m.Compact(); err != nil {
				t.Fatal(err)
			}
			wantVer(t, rd, "k", ver+1)
		}
		if after := slots(); after != before {
			t.Fatalf("slots %d -> %d: the re-creations did not reuse k's slot", before, after)
		}
		for i := range 8 {
			wantVer(t, rd, fmt.Sprint("other", i), 1)
		}
	})
}

// TestMapOfDecodeCacheClose: a Get on a closed handle fails, never
// serving a cached decode.
func TestMapOfDecodeCacheClose(t *testing.T) {
	bufferModes(t, func(t *testing.T, opts ...arcreg.Option) {
		m, rd := newVerMap(t, opts...)
		mustSet(t, m, "k", verItem{"k", 1})
		wantVer(t, rd, "k", 1)
		wantVer(t, rd, "k", 1)
		if err := rd.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := rd.Get("k"); !errors.Is(err, arcreg.ErrReaderClosed) || got != (verItem{}) {
			t.Fatalf("Get after Close = %+v, %v; want zero, ErrReaderClosed", got, err)
		}
	})
}

// TestMapOfDecodeCacheDecodeError: a failed decode is not cached; the
// next Get of the same publication decodes again.
func TestMapOfDecodeCacheDecodeError(t *testing.T) {
	bufferModes(t, func(t *testing.T, opts ...arcreg.Option) {
		cd := newCountCodec(arcreg.JSON[verItem]())
		m, rd := newVerMap(t, append(opts, arcreg.WithCodec(cd))...)
		mustSet(t, m, "k", verItem{"k", 1})
		cd.fail.Store(true)
		for range 2 {
			if _, err := rd.Get("k"); !errors.Is(err, errInjectedDecode) {
				t.Fatalf("Get with a failing decode: %v", err)
			}
		}
		cd.fail.Store(false)
		wantVer(t, rd, "k", 1)
		wantVer(t, rd, "k", 1)
		if n := cd.decodes.Load(); n != 3 {
			t.Fatalf("%d decodes, want 3 (two failures, then one decode served twice)", n)
		}
	})
}

// tagged holds a slice, so a copy shares its backing array: the typed
// reader must decode it afresh on every Get.
type tagged struct {
	Name string
	Tags []string
}

// TestMapOfDecodeCacheSharedMemory: mutating what one Get returned must
// not change what the next Get returns.
func TestMapOfDecodeCacheSharedMemory(t *testing.T) {
	bufferModes(t, func(t *testing.T, opts ...arcreg.Option) {
		cd := newCountCodec(arcreg.JSON[tagged]())
		m, err := arcreg.NewMap[tagged](append(opts, arcreg.WithReaders(1), arcreg.WithCodec(cd))...)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := m.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		mustSet(t, m, "k", tagged{Name: "k", Tags: []string{"a", "b"}})
		for i := range 3 {
			got, err := rd.Get("k")
			if err != nil {
				t.Fatal(err)
			}
			if got.Tags[0] != "a" {
				t.Fatalf("Get %d returned Tags %q: an earlier result's mutation leaked in", i, got.Tags)
			}
			got.Tags[0] = "mutated"
		}
		if n := cd.decodes.Load(); n != 3 {
			t.Fatalf("%d decodes for 3 Gets of a slice-bearing T, want 3", n)
		}
	})
}

// raceItem pads verItem past 1 KiB, which caps a typed reader's cache
// at 256 entries: the race test's keys then also share entries.
type raceItem struct {
	Key string
	Ver uint64
	Pad [128]uint64
}

// TestMapOfDecodeCacheRace: one writer publishes versioned Sets,
// Deletes, re-creations and Compacts while two typed readers Get
// Zipf-chosen keys; every Get must return its own key at a version no
// older than that reader's previous Get of the key. Once the writer
// stops, every reader must see each key's final state.
func TestMapOfDecodeCacheRace(t *testing.T) {
	const (
		nkeys = 600
		ops   = 20000
	)
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	bufferModes(t, func(t *testing.T, opts ...arcreg.Option) {
		opts = append(opts, arcreg.WithMaxValueSize(2048), arcreg.WithShards(4), arcreg.WithReaders(2))
		m, err := arcreg.NewMap[raceItem](opts...)
		if err != nil {
			t.Fatal(err)
		}
		vers := make([]uint64, nkeys)
		live := make([]bool, nkeys)
		for i, k := range keys {
			vers[i], live[i] = 1, true
			mustSet(t, m, k, raceItem{Key: k, Ver: 1})
		}
		var done atomic.Bool
		var wg sync.WaitGroup
		for r := range 2 {
			rd, err := m.NewReader()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer rd.Close()
				rng := rand.New(rand.NewSource(int64(r)))
				zipf := rand.NewZipf(rng, 1.1, 1, nkeys-1)
				last := make([]uint64, nkeys)
				for !done.Load() {
					i := zipf.Uint64()
					got, err := rd.Get(keys[i])
					if errors.Is(err, arcreg.ErrKeyNotFound) {
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					if got.Key != keys[i] || got.Ver < last[i] {
						t.Errorf("reader %d: Get(%q) = key %q version %d after version %d", r, keys[i], got.Key, got.Ver, last[i])
						return
					}
					last[i] = got.Ver
				}
				for i, k := range keys { // the writer has stopped
					got, err := rd.Get(k)
					if live[i] && (err != nil || got.Ver != vers[i]) || !live[i] && !errors.Is(err, arcreg.ErrKeyNotFound) {
						t.Errorf("reader %d after the writer: Get(%q) = version %d, %v; want version %d, live %v", r, k, got.Ver, err, vers[i], live[i])
						return
					}
				}
			}()
		}
		rng := rand.New(rand.NewSource(99))
		zipf := rand.NewZipf(rng, 1.1, 1, nkeys-1)
		for op := range ops {
			i := zipf.Uint64()
			var err error
			switch {
			case op%97 == 0:
				err = m.Compact()
			case op%7 == 0 && live[i]:
				err = m.Delete(keys[i])
				live[i] = false
			default:
				vers[i]++
				err = m.Set(keys[i], raceItem{Key: keys[i], Ver: vers[i]})
				live[i] = true
			}
			if err != nil {
				t.Error(err)
				break
			}
		}
		done.Store(true)
		wg.Wait()
	})
}

// hotTypedGet measures 1,000 typed Gets of one unchanged key: the
// allocations per Get and the decodes they ran.
func hotTypedGet[T any](t *testing.T, c arcreg.Codec[T], v T) (allocs float64, decodes int64) {
	t.Helper()
	cd := newCountCodec(c)
	m, err := arcreg.NewMap[T](arcreg.WithReaders(1), arcreg.WithCodec(cd))
	if err != nil {
		t.Fatal(err)
	}
	mustSet(t, m, "hot", v)
	rd, err := m.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if _, err := rd.Get("hot"); err != nil {
		t.Fatal(err)
	}
	before := cd.decodes.Load()
	allocs = testing.AllocsPerRun(1000, func() {
		if _, err := rd.Get("hot"); err != nil {
			t.Fatal(err)
		}
	})
	return allocs, cd.decodes.Load() - before
}

// TestGuardTypedHotGetZeroAlloc pins the decode cache's saving: a typed
// Get of an unchanged key neither decodes nor allocates with the JSON
// and Binary codecs, while a T holding a slice still decodes every time.
func TestGuardTypedHotGetZeroAlloc(t *testing.T) {
	for name, c := range map[string]arcreg.Codec[skuItem]{
		"json":   arcreg.JSON[skuItem](),
		"binary": arcreg.Binary[skuItem](),
	} {
		t.Run(name, func(t *testing.T) {
			if allocs, decodes := hotTypedGet(t, c, newSKU("hot", 1)); allocs != 0 || decodes != 0 {
				t.Errorf("unchanged-key Get: %.1f allocs/op and %d decodes over 1,001 Gets, want 0 and 0", allocs, decodes)
			}
		})
	}
	t.Run("slice-bearing", func(t *testing.T) {
		_, decodes := hotTypedGet(t, arcreg.JSON[tagged](), tagged{Name: "hot", Tags: []string{"a"}})
		if decodes != 1001 {
			t.Errorf("%d decodes over 1,001 Gets of a slice-bearing T, want one per Get", decodes)
		}
	})
}
