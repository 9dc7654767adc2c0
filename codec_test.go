package arcreg_test

// Codec-layer tests: round-trip fuzzing over every built-in codec, and
// the aliasing test for the documented decode contract — decoders must
// not retain the register-slot memory they are handed, because slots
// are recycled once the reading handle moves on.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"unicode/utf8"

	"arcreg"
)

// fuzzVal exercises JSON over the field kinds with retention hazards:
// strings and byte slices both alias their input in a careless decoder.
type fuzzVal struct {
	S string `json:"s"`
	I int64  `json:"i"`
	B []byte `json:"b"`
}

// pair implements encoding.BinaryMarshaler/Unmarshaler on its pointer
// receiver — the Binary codec's shape.
type pair struct{ A, B uint32 }

func (p *pair) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint32(buf[0:], p.A)
	binary.LittleEndian.PutUint32(buf[4:], p.B)
	return buf, nil
}

func (p *pair) UnmarshalBinary(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("pair: %d bytes, want 8", len(data))
	}
	p.A = binary.LittleEndian.Uint32(data[0:])
	p.B = binary.LittleEndian.Uint32(data[4:])
	return nil
}

// FuzzCodecRoundTrip drives Encode→Decode over all built-in codecs:
// JSON, String, Raw, Binary and Gob. Whatever goes in must come out.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte("raw bytes"), "a string", int64(7), uint32(1), uint32(2))
	f.Add([]byte{}, "", int64(0), uint32(0), uint32(0))
	f.Add([]byte{0xff, 0x00}, "日本語\x00", int64(-1), uint32(1<<32-1), uint32(42))
	f.Fuzz(func(t *testing.T, raw []byte, s string, i int64, a, b uint32) {
		jc := arcreg.JSON[fuzzVal]()
		jv := fuzzVal{S: s, I: i, B: raw}
		blob, err := jc.Encode(jv)
		if err != nil {
			// Arbitrary fuzz strings may not be valid UTF-8; encoding/json
			// replaces invalid runes, so the round trip is only exact for
			// encodable values.
			t.Skipf("json encode: %v", err)
		}
		got, err := jc.Decode(blob)
		if err != nil {
			t.Fatalf("json decode of own encoding %q: %v", blob, err)
		}
		if got.I != i || !bytes.Equal(got.B, raw) {
			t.Errorf("json round trip: got %+v, want I=%d B=%q", got, i, raw)
		}
		// encoding/json coerces invalid UTF-8 to replacement runes on the
		// first pass; strings surviving one trip must round-trip exactly.
		if utf8.ValidString(s) && got.S != s {
			t.Errorf("json round trip: S = %q, want %q", got.S, s)
		}
		blob2, err := jc.Encode(got)
		if err != nil {
			t.Fatalf("json re-encode: %v", err)
		}
		got2, err := jc.Decode(blob2)
		if err != nil {
			t.Fatalf("json second decode: %v", err)
		}
		if got2.S != got.S || got2.I != got.I || !bytes.Equal(got2.B, got.B) {
			t.Errorf("json round trip not idempotent: %+v != %+v", got2, got)
		}

		sc := arcreg.String()
		sblob, err := sc.Encode(s)
		if err != nil {
			t.Fatalf("string encode: %v", err)
		}
		if gs, err := sc.Decode(sblob); err != nil || gs != s {
			t.Errorf("string round trip: %q, %v", gs, err)
		}

		rc := arcreg.Raw()
		rblob, err := rc.Encode(raw)
		if err != nil {
			t.Fatalf("raw encode: %v", err)
		}
		if gr, err := rc.Decode(rblob); err != nil || !bytes.Equal(gr, raw) {
			t.Errorf("raw round trip: %q, %v", gr, err)
		}

		bc := arcreg.Binary[pair]()
		pv := pair{A: a, B: b}
		bblob, err := bc.Encode(pv)
		if err != nil {
			t.Fatalf("binary encode: %v", err)
		}
		if gp, err := bc.Decode(bblob); err != nil || gp != pv {
			t.Errorf("binary round trip: %+v, %v", gp, err)
		}

		// Gob is 8-bit clean: unlike JSON, arbitrary strings and bytes
		// must round-trip exactly, zero values included (gob omits zero
		// struct fields on the wire; they must still decode to equal
		// values).
		gc := arcreg.Gob[fuzzVal]()
		gv := fuzzVal{S: s, I: i, B: raw}
		gblob, err := gc.Encode(gv)
		if err != nil {
			t.Fatalf("gob encode: %v", err)
		}
		gotG, err := gc.Decode(gblob)
		if err != nil {
			t.Fatalf("gob decode of own encoding: %v", err)
		}
		if gotG.S != s || gotG.I != i || !bytes.Equal(gotG.B, raw) {
			t.Errorf("gob round trip: got %+v, want S=%q I=%d B=%q", gotG, s, i, raw)
		}
		// Every gob blob must be self-contained: decoding through a
		// second, fresh codec value (fresh gob decoder) must work too —
		// the property registers rely on when any reader decodes any
		// publication in isolation.
		if got2, err := arcreg.Gob[fuzzVal]().Decode(gblob); err != nil || got2.S != s {
			t.Errorf("gob blob not self-contained: %+v, %v", got2, err)
		}
	})
}

// clobberReads forces the slot that backed the handle's previous view to
// be unpinned and recycled: the next Get releases the pin, and the
// subsequent writes (more than ARC's N+2 slots) reuse and overwrite the
// freed buffer.
func clobberReads[T any](t *testing.T, reg *arcreg.Reg[T], rd *arcreg.TypedReader[T], set func(i int) T) {
	t.Helper()
	for i := 0; i < 8; i++ {
		if err := reg.Set(set(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := rd.Get(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCodecDecodeDoesNotAlias pins the documented decode contract for
// every copying built-in codec (the Codec doc: Decode "is handed a
// slice that may alias a register slot recycled as soon as Decode
// returns"). The decode happens straight from an ARC slot view; the
// slot is then recycled under fresh writes; the previously decoded
// value must be unaffected.
func TestCodecDecodeDoesNotAlias(t *testing.T) {
	t.Run("json", func(t *testing.T) {
		reg, err := arcreg.New[fuzzVal](arcreg.WithReaders(1), arcreg.WithMaxValueSize(256))
		if err != nil {
			t.Fatal(err)
		}
		rd, err := reg.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		want := fuzzVal{S: "retained-string-aaaaaaaaaaaaaaaa", I: 42, B: []byte("retained-bytes-bbbbbbbbbbbbbbbb")}
		if err := reg.Set(want); err != nil {
			t.Fatal(err)
		}
		got, err := rd.Get() // decoded straight from the slot view
		if err != nil {
			t.Fatal(err)
		}
		clobberReads(t, reg, rd, func(i int) fuzzVal {
			return fuzzVal{S: "clobber-XXXXXXXXXXXXXXXXXXXXXXXX", I: int64(i), B: bytes.Repeat([]byte{byte('0' + i)}, 32)}
		})
		if got.S != want.S || got.I != want.I || !bytes.Equal(got.B, want.B) {
			t.Errorf("decoded value mutated by slot recycling: %+v", got)
		}
	})

	t.Run("string", func(t *testing.T) {
		reg, err := arcreg.New[string](
			arcreg.WithCodec(arcreg.String()),
			arcreg.WithReaders(1), arcreg.WithMaxValueSize(64))
		if err != nil {
			t.Fatal(err)
		}
		rd, err := reg.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		const want = "immutable-string-payload"
		if err := reg.Set(want); err != nil {
			t.Fatal(err)
		}
		got, err := rd.Get()
		if err != nil {
			t.Fatal(err)
		}
		clobberReads(t, reg, rd, func(i int) string { return fmt.Sprintf("clobber-%024d", i) })
		if got != want {
			t.Errorf("decoded string mutated by slot recycling: %q", got)
		}
	})

	t.Run("binary", func(t *testing.T) {
		reg, err := arcreg.New[pair](
			arcreg.WithCodec(arcreg.Binary[pair]()),
			arcreg.WithReaders(1), arcreg.WithMaxValueSize(16))
		if err != nil {
			t.Fatal(err)
		}
		rd, err := reg.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		want := pair{A: 0xdeadbeef, B: 0xcafebabe}
		if err := reg.Set(want); err != nil {
			t.Fatal(err)
		}
		got, err := rd.Get()
		if err != nil {
			t.Fatal(err)
		}
		clobberReads(t, reg, rd, func(i int) pair { return pair{A: uint32(i), B: uint32(i)} })
		if got != want {
			t.Errorf("decoded pair mutated by slot recycling: %+v", got)
		}
	})

	t.Run("gob", func(t *testing.T) {
		reg, err := arcreg.New[fuzzVal](
			arcreg.WithCodec(arcreg.Gob[fuzzVal]()),
			arcreg.WithReaders(1), arcreg.WithMaxValueSize(256))
		if err != nil {
			t.Fatal(err)
		}
		rd, err := reg.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		want := fuzzVal{S: "retained-string-aaaaaaaaaaaaaaaa", I: 42, B: []byte("retained-bytes-bbbbbbbbbbbbbbbb")}
		if err := reg.Set(want); err != nil {
			t.Fatal(err)
		}
		got, err := rd.Get() // decoded straight from the slot view
		if err != nil {
			t.Fatal(err)
		}
		clobberReads(t, reg, rd, func(i int) fuzzVal {
			return fuzzVal{S: "clobber-XXXXXXXXXXXXXXXXXXXXXXXX", I: int64(i), B: bytes.Repeat([]byte{byte('0' + i)}, 32)}
		})
		if got.S != want.S || got.I != want.I || !bytes.Equal(got.B, want.B) {
			t.Errorf("decoded value mutated by slot recycling: %+v", got)
		}
	})

	// Raw is the documented exception: its Decode intentionally aliases
	// the slot, giving view semantics. Pin that the alias really is a
	// view of register memory (same backing array as ViewBytes).
	t.Run("raw-aliases-by-design", func(t *testing.T) {
		reg, err := arcreg.New[[]byte](
			arcreg.WithCodec(arcreg.Raw()),
			arcreg.WithReaders(1), arcreg.WithMaxValueSize(64))
		if err != nil {
			t.Fatal(err)
		}
		rd, err := reg.NewReader()
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		if err := reg.Set([]byte("view-semantics")); err != nil {
			t.Fatal(err)
		}
		got, err := rd.Get()
		if err != nil {
			t.Fatal(err)
		}
		view, err := rd.ViewBytes()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || len(view) == 0 || &got[0] != &view[0] {
			t.Error("Raw Decode did not alias the slot view")
		}
	})
}
