package arcreg

import (
	"encoding"

	"arcreg/internal/codec"
)

// Codec converts between Go values and the byte strings registers
// store; it is the one encoding layer both typed surfaces (New and
// NewMap) share. Implement it and pass it with WithCodec to plug a
// custom wire format into either.
//
// Decode is handed a slice that may alias a register slot recycled as
// soon as Decode returns: implementations must not retain it or any
// sub-slice (encoding/json and encoding/gob already copy; a decoder
// that keeps sub-slices must copy them first). Raw is the one
// deliberate exception.
//
// Decode must be a pure function of its input: equal bytes decode to
// equal values. MapOfReader.Get relies on it — for a copy-safe T
// (bools, numbers, strings, and arrays and structs of those) it may
// return an earlier decode of the same publication instead of calling
// Decode again.
type Codec[T any] = codec.Codec[T]

// JSON returns the encoding/json codec — the zero-configuration choice
// for sharing configuration structs, snapshots and similar values, and
// the default codec of New.
func JSON[T any]() Codec[T] { return codec.JSON[T]() }

// Gob returns the encoding/gob codec — the binary stdlib choice for Go
// value graphs (maps, slices, nested structs) without hand-written
// marshalers: denser and faster than JSON for most struct payloads, at
// the cost of a per-blob type preamble and Go-only wire compatibility.
// Every blob is self-contained (fresh encoder per call), and
// encoding/gob copies everything it decodes, satisfying the register
// aliasing contract.
func Gob[T any]() Codec[T] { return codec.Gob[T]() }

// Raw returns the zero-copy []byte passthrough codec: Encode and Decode
// are the identity, so Get returns a direct view of the register slot.
// Values obtained through it follow zero-copy view semantics — valid
// only until the reading handle's next operation, never to be modified.
func Raw() Codec[[]byte] { return codec.Raw() }

// String returns the codec for plain string values. Both directions
// copy, so decoded strings are immune to slot recycling.
func String() Codec[string] { return codec.String() }

// Binary returns a codec for types implementing
// encoding.BinaryMarshaler and encoding.BinaryUnmarshaler on their
// pointer receiver: Binary[Point, *Point](). The stdlib
// BinaryUnmarshaler contract requires implementations to copy data they
// retain, which is exactly the register aliasing contract.
func Binary[T any, PT interface {
	*T
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}]() Codec[T] {
	return codec.Binary[T, PT]()
}
