// Package codec is the one encoding layer between the byte-oriented
// registers and the typed public API. Both typed surfaces in the
// repository — Reg[T] from New[T] and the keyed MapOf[T] from NewMap[T]
// — funnel through the Codec[T] contract defined here, so a new
// encoding (protobuf, flatbuffers, a hand-rolled wire format) plugs
// into both at once.
//
// Codecs run outside the registers' critical operations: encoding
// happens before the wait-free write, decoding after the wait-free read.
// They may therefore be arbitrarily expensive without affecting other
// threads' progress — but their Decode must respect the aliasing
// contract below, because registers hand decoders direct views of their
// internal slots.
package codec

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"encoding/json"
	"fmt"
)

// Codec converts between Go values and the byte strings registers store.
//
// Decode is handed a slice that may alias a register slot which is
// recycled as soon as Decode returns: implementations must not retain p
// or any sub-slice of it (encoding/json and encoding/gob already copy;
// a decoder that keeps sub-slices must copy them first). Raw is the one
// deliberate exception and documents its view semantics.
type Codec[T any] interface {
	// Encode serializes v. The returned slice is owned by the caller
	// until the register copies it (registers copy on Write).
	Encode(v T) ([]byte, error)
	// Decode deserializes p into a fresh value, without retaining p.
	Decode(p []byte) (T, error)
	// Name identifies the codec in diagnostics ("json", "raw", ...).
	Name() string
}

// jsonCodec implements Codec via encoding/json.
type jsonCodec[T any] struct{}

func (jsonCodec[T]) Encode(v T) ([]byte, error) { return json.Marshal(v) }

func (jsonCodec[T]) Decode(p []byte) (T, error) {
	var v T
	err := json.Unmarshal(p, &v)
	return v, err
}

func (jsonCodec[T]) Name() string { return "json" }

// JSON returns the encoding/json codec — the zero-configuration choice
// for sharing configuration structs, snapshots and similar values.
func JSON[T any]() Codec[T] { return jsonCodec[T]{} }

// gobCodec implements Codec via encoding/gob. Each call uses a fresh
// encoder/decoder so every blob is self-contained (a long-lived gob
// stream elides type information after the first value, which would
// make register blobs undecodable in isolation).
type gobCodec[T any] struct{}

func (gobCodec[T]) Encode(v T) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (gobCodec[T]) Decode(p []byte) (T, error) {
	var v T
	err := gob.NewDecoder(bytes.NewReader(p)).Decode(&v)
	return v, err
}

func (gobCodec[T]) Name() string { return "gob" }

// Gob returns the encoding/gob codec — the binary stdlib choice for Go
// value graphs (maps, slices, nested structs) without hand-written
// marshalers. Denser and faster than JSON for most struct payloads, at
// the cost of a per-blob type preamble and Go-only wire compatibility.
// encoding/gob copies everything it decodes, satisfying the register
// aliasing contract.
func Gob[T any]() Codec[T] { return gobCodec[T]{} }

// rawCodec is the zero-copy []byte passthrough.
type rawCodec struct{}

func (rawCodec) Encode(v []byte) ([]byte, error) { return v, nil }

func (rawCodec) Decode(p []byte) ([]byte, error) { return p, nil }

func (rawCodec) Name() string { return "raw" }

// Raw returns the zero-copy []byte passthrough codec: Encode and Decode
// are the identity. It is the one codec whose Decode intentionally
// aliases its input, so values obtained through it follow zero-copy view
// semantics — valid only until the reading handle's next operation, and
// never to be modified. Use it when T is []byte and the copy-free read
// path matters; use String (or a copying codec) when values must outlive
// the handle's next read.
func Raw() Codec[[]byte] { return rawCodec{} }

// stringCodec copies through string conversion on both sides.
type stringCodec struct{}

func (stringCodec) Encode(v string) ([]byte, error) { return []byte(v), nil }

func (stringCodec) Decode(p []byte) (string, error) { return string(p), nil }

func (stringCodec) Name() string { return "string" }

// String returns the codec for plain string values. Both directions
// copy, so decoded strings are immune to slot recycling.
func String() Codec[string] { return stringCodec{} }

// binaryCodec implements Codec via encoding.BinaryMarshaler /
// BinaryUnmarshaler on *T.
type binaryCodec[T any, PT interface {
	*T
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}] struct{}

func (binaryCodec[T, PT]) Encode(v T) ([]byte, error) { return PT(&v).MarshalBinary() }

func (binaryCodec[T, PT]) Decode(p []byte) (T, error) {
	var v T
	err := PT(&v).UnmarshalBinary(p)
	return v, err
}

func (binaryCodec[T, PT]) Name() string { return "binary" }

// Binary returns a codec for types implementing
// encoding.BinaryMarshaler and encoding.BinaryUnmarshaler on their
// pointer receiver: Binary[Point, *Point](). The stdlib
// BinaryUnmarshaler contract already requires implementations to copy
// data they retain, which is exactly the register aliasing contract.
func Binary[T any, PT interface {
	*T
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}]() Codec[T] {
	return binaryCodec[T, PT]{}
}

// ZeroInitial encodes T's zero value for use as a register's initial
// value, bounds-checked against a positive maxValueSize (a zero bound
// is left to the register's default and a negative one to its own
// validation, which rejects it). New seeds every register shape with
// it: readers that Get before the first Set decode this blob instead of
// failing on the registers' one-zero-byte default.
func ZeroInitial[T any](c Codec[T], maxValueSize int) ([]byte, error) {
	var zero T
	blob, err := c.Encode(zero)
	if err != nil {
		return nil, fmt.Errorf("arcreg: encoding zero value: %w", err)
	}
	if maxValueSize > 0 && len(blob) > maxValueSize {
		return nil, fmt.Errorf("arcreg: zero value needs %d bytes > MaxValueSize %d", len(blob), maxValueSize)
	}
	if blob == nil {
		// A nil encoding (Raw's zero value) still means "seed with the
		// empty value": registers treat a nil Initial as unset and would
		// substitute their one-zero-byte default instead.
		blob = []byte{}
	}
	return blob, nil
}
