package arcreg

import (
	"arcreg/internal/arc"
	"arcreg/internal/leftright"
	"arcreg/internal/lockreg"
	"arcreg/internal/peterson"
	"arcreg/internal/register"
	"arcreg/internal/rf"
	"arcreg/internal/seqlock"
)

// Config parametrizes register construction.
//
// MaxReaders is N, the number of reader handles that may be live at once.
// MaxValueSize bounds the values Write accepts (buffers are pre-allocated
// at this size; it defaults to 4096). Initial optionally sets the value
// readers see before the first write.
type Config = register.Config

// Register is a multi-word atomic (1,N) register: one writer endpoint and
// up to MaxReaders concurrent reader handles.
type Register = register.Register

// Writer stores new values. Use from one goroutine at a time — the "1" in
// (1,N).
type Writer = register.Writer

// Reader retrieves values. One handle per goroutine; handles carry the
// per-process protocol state.
type Reader = register.Reader

// Viewer is implemented by readers supporting zero-copy views (ARC, RF and
// the lock register; Peterson reads inherently copy).
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

// ARCOption tunes the ARC register.
type ARCOption func(*arc.Options)

// WithoutFastPath disables the R1–R2 read fast path, forcing RMW
// instructions on every read. Benchmarks use it to quantify the
// optimization; applications should not.
func WithoutFastPath() ARCOption {
	return func(o *arc.Options) { o.DisableFastPath = true }
}

// WithoutFreeHint disables the §3.4 free-slot hint, leaving the writer
// with a plain linear slot scan. Benchmarks only.
func WithoutFreeHint() ARCOption {
	return func(o *arc.Options) { o.DisableFreeHint = true }
}

// WithStaticReaders reproduces the paper's Algorithm 1 initialization:
// all N reader identities are pre-charged onto the initial value's slot
// and exactly MaxReaders handles can ever be created.
func WithStaticReaders() ARCOption {
	return func(o *arc.Options) { o.StaticInit = true }
}

// WithDynamicBuffers enables the paper's §3.3 allocation variant: every
// write allocates an exact-size buffer instead of filling a pre-allocated
// MaxValueSize slot. Memory then scales with the values actually stored
// (useful when MaxValueSize is large and typical values are small), at
// the cost of one allocation per write; retired buffers are reclaimed by
// the garbage collector.
func WithDynamicBuffers() ARCOption {
	return func(o *arc.Options) { o.DynamicBuffers = true }
}

// NewARC constructs an Anonymous Readers Counting register — the paper's
// algorithm. Reads are wait-free and constant-time (zero RMW instructions
// when the value is unchanged); writes are wait-free and amortized
// constant-time; values are copied exactly once per write and never on
// read (views alias the internal slot).
func NewARC(cfg Config, opts ...ARCOption) (Register, error) {
	var o arc.Options
	for _, opt := range opts {
		opt(&o)
	}
	return arc.New(cfg, o)
}

// NewRF constructs a Readers-Field register (Larsson et al., JEA 2009) —
// the closest RMW-based prior work. Wait-free; one RMW per read; at most
// 58 readers; O(N) writes.
func NewRF(cfg Config) (Register, error) { return rf.New(cfg) }

// NewPeterson constructs a Peterson-style register (TOPLAS 1983) built
// purely from single-word atomic reads and writes. Wait-free with zero
// RMW instructions, at the cost of up to three value copies per read and
// per-reader copy-outs on write.
func NewPeterson(cfg Config) (Register, error) { return peterson.New(cfg) }

// NewLocked constructs a reader/writer-spinlock register. Linearizable
// but not wait-free — the comparator the paper uses to show what lock
// preemption costs on virtualized and oversubscribed hosts.
func NewLocked(cfg Config) (Register, error) { return lockreg.New(cfg) }

// NewSeqlock constructs a sequence-lock register (the Linux-kernel
// seqcount pattern) — an extension baseline beyond the paper. Writes are
// wait-free and use a single buffer; reads are only lock-free: they retry
// without bound while a write is in flight, so a preempted writer stalls
// every reader.
func NewSeqlock(cfg Config) (Register, error) { return seqlock.New(cfg) }

// NewLeftRight constructs a Left-Right register (Ramalhete & Correia,
// 2013) — an extension baseline beyond the paper. Reads are wait-free
// with zero-copy views and only two value instances exist, but writes
// block until reader versions drain, so a stalled reader stalls the
// writer (ARC avoids exactly this with its N+2 slots).
func NewLeftRight(cfg Config) (Register, error) { return leftright.New(cfg) }

// FreshnessProber is implemented by readers that can report, without
// performing a read, whether their last-returned value is still current.
// ARC and RF support it; for ARC the probe is a single atomic load with
// no RMW instruction.
type FreshnessProber = register.FreshnessProber
