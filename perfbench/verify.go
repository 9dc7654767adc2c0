package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

// Every value a workload writes carries a version stamp, and each
// verifier rejects what the paper's atomicity criterion forbids: a torn
// value (head and tail stamps differ) and a new-old inversion (a read
// older than one the same goroutine already completed).

// audit counts the correctness violations one goroutine saw and keeps
// the first few for the report.
type audit struct {
	n     uint64
	first []string
}

func (a *audit) fail(err error) {
	a.n++
	if len(a.first) < 5 {
		a.first = append(a.first, err.Error())
	}
}

func (a *audit) merge(b *audit) {
	a.n += b.n
	for _, m := range b.first {
		if len(a.first) < 5 {
			a.first = append(a.first, m)
		}
	}
}

// ---- feed: 4 KiB binary values ----

const feedValueSize = 4096

// stampFeed writes ver at both ends of buf and the publication's due
// time right after the head stamp.
func stampFeed(buf []byte, ver uint64, due int64) {
	binary.LittleEndian.PutUint64(buf, ver)
	binary.LittleEndian.PutUint64(buf[8:], uint64(due))
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], ver)
}

// checkFeed validates one view and returns its version and due time.
// newest is the highest version the reading goroutine has already seen
// through any of its handles.
func checkFeed(v []byte, newest uint64) (ver uint64, due int64, err error) {
	if len(v) != feedValueSize {
		return 0, 0, fmt.Errorf("feed: view of %d bytes, want %d", len(v), feedValueSize)
	}
	ver = binary.LittleEndian.Uint64(v)
	if tail := binary.LittleEndian.Uint64(v[len(v)-8:]); tail != ver {
		return 0, 0, fmt.Errorf("feed: torn view: head version %d, tail version %d", ver, tail)
	}
	if ver < newest {
		return 0, 0, fmt.Errorf("feed: new-old inversion: read version %d after version %d", ver, newest)
	}
	return ver, int64(binary.LittleEndian.Uint64(v[8:])), nil
}

// ---- catalog: typed items through the Binary codec ----

// Item is the catalog's typed value, about 100 bytes encoded.
type Item struct {
	Key     string
	Version uint64
	Stamp   int64 // when the Set that wrote this version started
	Price   uint64
	Note    string
}

// MarshalBinary encodes the item as length-prefixed fields.
func (it *Item) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 16+len(it.Key)+len(it.Note)+3*binary.MaxVarintLen64)
	b = binary.AppendUvarint(b, uint64(len(it.Key)))
	b = append(b, it.Key...)
	b = binary.AppendUvarint(b, it.Version)
	b = binary.AppendVarint(b, it.Stamp)
	b = binary.AppendUvarint(b, it.Price)
	b = binary.AppendUvarint(b, uint64(len(it.Note)))
	return append(b, it.Note...), nil
}

var errShortItem = errors.New("catalog: truncated item")

// UnmarshalBinary decodes MarshalBinary's format, copying the strings
// out of b (the register may recycle b's slot after the call).
func (it *Item) UnmarshalBinary(b []byte) error {
	str := func() (string, bool) {
		n, k := binary.Uvarint(b)
		if k <= 0 || uint64(len(b)-k) < n {
			return "", false
		}
		s := string(b[k : k+int(n)])
		b = b[k+int(n):]
		return s, true
	}
	uv := func() (uint64, bool) {
		v, k := binary.Uvarint(b)
		if k <= 0 {
			return 0, false
		}
		b = b[k:]
		return v, true
	}
	var ok bool
	if it.Key, ok = str(); !ok {
		return errShortItem
	}
	if it.Version, ok = uv(); !ok {
		return errShortItem
	}
	s, k := binary.Varint(b)
	if k <= 0 {
		return errShortItem
	}
	it.Stamp, b = s, b[k:]
	if it.Price, ok = uv(); !ok {
		return errShortItem
	}
	if it.Note, ok = str(); !ok {
		return errShortItem
	}
	if len(b) != 0 {
		return errors.New("catalog: trailing bytes after item")
	}
	return nil
}

// checkItem validates a typed Get of key: the item must be key's own,
// and its version no older than the last one this reader saw for key.
func checkItem(key string, it Item, last uint64) error {
	if it.Key != key {
		return fmt.Errorf("catalog: Get(%q) returned the item of %q", key, it.Key)
	}
	if it.Version < last {
		return fmt.Errorf("catalog: %q went back from version %d to %d", key, last, it.Version)
	}
	return nil
}

// ---- edge: 256-byte printable values over HTTP ----

// An edge value is printable, so SSE frames carry it on one data line:
//
//	v=<version> k=<key hash> t=<sent ns> <filler> v=<version>
//
// with every number in fixed-width hex. t is when the client sent the
// PUT that wrote the value (0 for preloaded values).
const (
	edgeValueSize = 256
	edgeHeadLen   = 49 // "v=%016x k=%08x t=%016x "
	edgeTailAt    = edgeValueSize - 18
)

func keyHash(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32()
}

func putHex(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = digits[v&15]
		v >>= 4
	}
}

func parseHex(b []byte) (uint64, bool) {
	var v uint64
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			v = v<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// edgeValue fills dst (edgeValueSize bytes) with a stamped value; fill
// supplies the filler bytes.
func edgeValue(dst []byte, ver uint64, kh uint32, sent int64, fill string) {
	copy(dst, "v=")
	putHex(dst[2:18], ver)
	copy(dst[18:], " k=")
	putHex(dst[21:29], uint64(kh))
	copy(dst[29:], " t=")
	putHex(dst[32:48], uint64(sent))
	dst[48] = ' '
	copy(dst[edgeHeadLen:edgeTailAt], fill)
	copy(dst[edgeTailAt:], "v=")
	putHex(dst[edgeTailAt+2:], ver)
}

// checkEdge validates a value read for the key hashing to kh and returns
// its version and send stamp. floor is the lowest version the read may
// return: the newest one this client already saw or had acknowledged.
func checkEdge(v []byte, kh uint32, floor uint64) (ver uint64, sent int64, err error) {
	if len(v) != edgeValueSize {
		return 0, 0, fmt.Errorf("edge: value of %d bytes, want %d", len(v), edgeValueSize)
	}
	ver, ok1 := parseHex(v[2:18])
	tail, ok2 := parseHex(v[edgeTailAt+2:])
	k, ok3 := parseHex(v[21:29])
	t, ok4 := parseHex(v[32:48])
	switch {
	case !ok1 || !ok2 || !ok3 || !ok4 || string(v[:2]) != "v=" || string(v[edgeTailAt:edgeTailAt+2]) != "v=":
		return 0, 0, fmt.Errorf("edge: malformed value %.60q", v)
	case tail != ver:
		return 0, 0, fmt.Errorf("edge: torn value: head version %d, tail version %d", ver, tail)
	case uint32(k) != kh:
		return 0, 0, fmt.Errorf("edge: value of key hash %08x, want %08x", k, kh)
	case ver < floor:
		return 0, 0, fmt.Errorf("edge: version went back from %d to %d", floor, ver)
	}
	return ver, int64(t), nil
}
