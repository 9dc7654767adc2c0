package arcreg

import (
	"arcreg/internal/register"
	"arcreg/internal/rf"
)

// Register is a multi-word atomic (1,N) register: one writer endpoint and
// up to MaxReaders concurrent reader handles (see Reg.Register).
type Register = register.Register

// Writer stores new values: the (1,N) register's single endpoint (the
// "1" in (1,N)) or one (M,N) writer identity. Use from one goroutine at
// a time.
type Writer = register.Writer

// Reader retrieves values: Read, View, Fresh, ReadStats and Close on
// every algorithm, with View returning ErrNoView and Fresh false where
// the register's Caps say it lacks them. One handle per goroutine;
// handles carry the per-process protocol state.
type Reader = register.Reader

// Viewer is the zero-copy part of Reader: View works on ARC, RF, the
// lock register and Left-Right (Caps.ZeroCopyView); Peterson and seqlock
// reads copy.
type Viewer = register.Viewer

// ReadStats counts per-handle read work (operations, RMW instructions,
// fast-path hits); see TypedReader.ReadStats. Its Snapshot method
// renders the counters as a node of the Stats observability tree (see
// Reg.Stats).
type ReadStats = register.ReadStats

// WriteStats counts writer work (operations, RMW instructions, slot-scan
// probes, hint hits); see TypedWriter.WriteStats. Its Snapshot method
// renders the counters as a node of the Stats observability tree (see
// Reg.Stats).
type WriteStats = register.WriteStats

// Errors returned by register operations.
var (
	// ErrTooManyReaders: NewReader beyond MaxReaders.
	ErrTooManyReaders = register.ErrTooManyReaders
	// ErrValueTooLarge: Write beyond MaxValueSize.
	ErrValueTooLarge = register.ErrValueTooLarge
	// ErrReaderClosed: operation on a closed handle.
	ErrReaderClosed = register.ErrReaderClosed
	// ErrBufferTooSmall: Read destination cannot hold the value.
	ErrBufferTooSmall = register.ErrBufferTooSmall
)

// MaxARCReaders is ARC's architectural reader bound on 64-bit machines:
// 2³²−2 (the paper's headline scalability figure).
const MaxARCReaders = 1<<32 - 2

// MaxRFReaders is the RF baseline's architectural bound: 58.
const MaxRFReaders = rf.MaxReaders
