package regmap

// FuzzDirectoryDecode drives the directory log — including tombstone
// entries — from arbitrary operation scripts and holds the reader's
// incremental decode to a model map; FuzzDirectoryDecodeCorrupt feeds
// the decoder syntactically broken logs and requires a clean error
// (never a panic, never silent acceptance).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// FuzzDirectoryDecode interprets data as a script of Set/Delete
// operations over a small key space, applying each to a Map and to a
// model map, and after every step verifies an incrementally refreshing
// reader (created up front) and a freshly decoding reader (created at
// the end) agree with the model on membership, values, Len and Snapshot.
func FuzzDirectoryDecode(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x80, 0x01, 0x91})       // set, set, delete, set, delete
	f.Add([]byte{0x00, 0x80})                         // create then delete
	f.Add([]byte{0x00, 0x80, 0x00})                   // create, delete, recreate
	f.Add(bytes.Repeat([]byte{0x07, 0x87}, 8))        // flap one key
	f.Add([]byte{0x00, 0x10, 0x20, 0x90, 0x10, 0x30}) // interleaved adds/deletes
	f.Fuzz(func(t *testing.T, script []byte) {
		m, err := New(Config{Shards: 2, MaxReaders: 2, MaxValueSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		rd, err := m.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		model := map[string]string{}
		for step, op := range script {
			key := fmt.Sprintf("key-%d", op&0x0f)
			if op&0x80 != 0 {
				err := m.Delete(key)
				_, existed := model[key]
				if existed != (err == nil) {
					t.Fatalf("step %d: Delete(%q) = %v, model existed=%v", step, key, err, existed)
				}
				if !existed && err != ErrKeyNotFound {
					t.Fatalf("step %d: Delete(%q) = %v, want ErrKeyNotFound", step, key, err)
				}
				delete(model, key)
			} else {
				val := fmt.Sprintf("v%d-%d", op, step)
				if err := m.Set(key, []byte(val)); err != nil {
					t.Fatalf("step %d: Set(%q): %v", step, key, err)
				}
				model[key] = val
			}
			// The incremental reader tracks the model exactly.
			for i := 0; i < 16; i++ {
				k := fmt.Sprintf("key-%d", i)
				got, err := rd.Get(k)
				want, ok := model[k]
				if ok != (err == nil) || (ok && string(got) != want) {
					t.Fatalf("step %d: Get(%q) = %q, %v; model %q, %v", step, k, got, err, want, ok)
				}
				if !ok && err != ErrKeyNotFound {
					t.Fatalf("step %d: Get(%q) miss = %v", step, k, err)
				}
			}
			if n, err := rd.Len(); err != nil || n != len(model) {
				t.Fatalf("step %d: Len = %d, %v; model %d", step, n, err, len(model))
			}
		}
		// A from-scratch reader decodes the whole log to the same state,
		// and Snapshot matches the model.
		rd2, err := m.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		defer rd2.Close()
		snap, err := rd2.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap) != len(model) {
			t.Fatalf("snapshot %d keys, model %d", len(snap), len(model))
		}
		for k, want := range model {
			if got, ok := snap[k]; !ok || string(got) != want {
				t.Fatalf("snapshot[%q] = %q (%v), want %q", k, got, ok, want)
			}
		}
		if m.Len() != len(model) {
			t.Fatalf("Map.Len = %d, model %d", m.Len(), len(model))
		}
	})
}

// FuzzDirectoryDecodeCorrupt publishes arbitrary bytes as a shard
// directory and requires the reader's decode to either succeed (when the
// bytes happen to form a valid log extension) or fail with an error —
// never panic and never mis-parse silently into a torn lookup.
func FuzzDirectoryDecodeCorrupt(f *testing.F) {
	// valid lays entries out behind a cgen header; the log's length
	// delimits it, so there is no count to fill in.
	valid := func(cgen uint32, entries ...[]byte) []byte {
		buf := binary.LittleEndian.AppendUint32(nil, cgen)
		for _, e := range entries {
			buf = append(buf, e...)
		}
		return buf
	}
	addEntry := func(slot int, gen uint32, key string) []byte {
		return appendAdd(nil, slot, gen, key)
	}
	tombEntry := func(slot int) []byte {
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], uint64(slot)<<1|tombstoneFlag)
		return append([]byte(nil), tmp[:n]...)
	}
	f.Add(valid(0, addEntry(0, 1, "a")))
	f.Add(valid(0, addEntry(0, 1, "a"), tombEntry(0)))
	f.Add(valid(0, tombEntry(3)))                             // tombstone of a never-added slot
	f.Add(valid(0, addEntry(7, 1, "gap")))                    // add skipping slots
	f.Add(valid(0, addEntry(0, 1, "a"), addEntry(0, 2, "b"))) // add onto an occupied slot
	f.Add(valid(1, addEntry(0, 1, "a")))                      // compaction epoch naming an unknown slot
	f.Add(valid(0, addEntry(0, 0, "a")))                      // generation zero is invalid
	f.Add([]byte{1, 2, 3})                                    // shorter than the header
	// Trailing garbage: the length delimits the log, so bytes after the
	// last entry are decoded as entries too, and rejected. The empty map
	// already rejects the first seed's add, so the second puts the stray
	// byte (an unterminated tag varint) right after the header.
	f.Add(append(valid(0, addEntry(0, 1, "a")), 0xff))
	f.Add(append(valid(0), 0xff))
	truncated := valid(0, addEntry(0, 1, "a-long-key"))
	f.Add(truncated[:len(truncated)-4]) // keylen overruns the buffer
	// A truncated tail entry: an add cut off after its generation, where
	// the log's length ends before the key length.
	f.Add(valid(0, addEntry(0, 1, "b")[:2]))
	// The key-length uvarint overflow that committed crasher
	// a58b0497fd6bc1fe caught, whose bytes are laid out for an older
	// header: a slot-0 add, generation 1, then a key length above 2^63,
	// which would wrap negative as an int and slip past a signed bound.
	f.Add(valid(0, []byte{0x00, 0x01, 0x98, 0x98, 0x98, 0x98, 0x98, 0x98, 0x98, 0x98, 0x98, 0x01}))

	f.Fuzz(func(t *testing.T, dir []byte) {
		m, err := New(Config{Shards: 1, MaxReaders: 1, MaxValueSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		rd, err := m.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		// Publish the fuzzed bytes directly as the shard's directory log,
		// bypassing the writer-side encoder.
		m.shards[0].publishDir(dir, faultDirPublish)
		// The decode must either error cleanly or leave the reader in a
		// self-consistent state (Get of any probed key terminates).
		_, err = rd.Get("probe")
		if err != nil && err != ErrKeyNotFound {
			// Rejected: the corruption is sticky until the next
			// publication — repeated operations keep returning errors
			// rather than serving a half-applied directory.
			if _, err2 := rd.Len(); err2 == nil {
				t.Fatalf("decode rejected Get (%v) but accepted Len", err)
			}
			if rd.Fresh("probe") {
				t.Fatalf("corrupt shard reports fresh")
			}
			if _, err2 := rd.Snapshot(); err2 == nil {
				t.Fatalf("decode rejected Get (%v) but accepted Snapshot", err)
			}
		} else {
			// Accepted: the bytes formed a plausible log. Lookups must
			// stay terminating and consistent.
			if _, err := rd.Len(); err != nil {
				t.Fatalf("Len after accepted decode: %v", err)
			}
		}
		// Whatever the bytes did — rejected garbage or silently plausible
		// divergence — one compaction epoch repairs it: the writer's
		// tables never saw the fuzzed publication, so Compact republishes
		// the writer's truth (an empty map) and the reader must rebase
		// onto it, whether it was latched, poisoned, or healthy.
		if err := m.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		if _, err := rd.Get("probe"); err != ErrKeyNotFound {
			t.Fatalf("Get after repair compaction = %v, want ErrKeyNotFound", err)
		}
		if n, err := rd.Len(); err != nil || n != 0 {
			t.Fatalf("Len after repair compaction = %d, %v; want 0", n, err)
		}
		if snap, err := rd.Snapshot(); err != nil || len(snap) != 0 {
			t.Fatalf("Snapshot after repair compaction = %d keys, %v; want empty", len(snap), err)
		}
	})
}
