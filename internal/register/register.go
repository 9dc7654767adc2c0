// Package register defines the contract shared by every multi-word (1,N)
// register implementation in this repository: ARC (the paper's
// contribution), the RF and Peterson baselines, and the lock-based
// comparator. The benchmark harness, the linearizability checker, and the
// examples all program against these interfaces, so each algorithm plugs
// into every experiment unchanged.
//
// Terminology follows the paper (§3.1): a register holds one multi-word
// value at a time; one distinguished writer process stores new values; up
// to N reader processes retrieve the freshest value. Reads and writes by
// the same process are sequential; processes are asynchronous.
package register

import (
	"errors"
	"fmt"

	"arcreg/internal/obs"
)

// Errors shared by the register implementations.
var (
	// ErrTooManyReaders is returned by NewReader when the register's
	// reader capacity (N) is exhausted.
	ErrTooManyReaders = errors.New("register: reader capacity exhausted")
	// ErrValueTooLarge is returned by Write when a value exceeds the
	// register's configured maximum size.
	ErrValueTooLarge = errors.New("register: value exceeds maximum size")
	// ErrReaderClosed is returned by operations on a closed reader handle.
	ErrReaderClosed = errors.New("register: reader handle closed")
	// ErrBufferTooSmall is returned by Read when dst cannot hold the
	// current value.
	ErrBufferTooSmall = errors.New("register: destination buffer too small")
)

// Writer stores new values into the register. Exactly one goroutine may
// use the Writer at a time — the (1,N) in the register's name. Writes are
// wait-free for ARC, RF and Peterson and blocking for the lock-based
// comparator.
type Writer interface {
	// Write publishes a new register value. The implementation copies p
	// into an internal slot; the caller keeps ownership of p. Values may
	// have different lengths on every call, up to the configured maximum.
	Write(p []byte) error
}

// Reader retrieves register values. A Reader handle is owned by a single
// goroutine; concurrent reads require one handle per goroutine (each
// handle carries the per-process state the algorithms call last_index).
type Reader interface {
	// Read copies the freshest value into dst and returns its length.
	// If dst is too small, it returns ErrBufferTooSmall (and the required
	// length).
	Read(dst []byte) (int, error)
	// Close releases the handle and any slot it pins. After Close the
	// handle is invalid; its identity may be reused by a future
	// NewReader.
	Close() error
}

// Viewer is implemented by readers that can expose the freshest value
// without copying it (ARC's headline structural property: no intermediate
// copies on either operation; the read returns the slot buffer itself).
type Viewer interface {
	// View returns a read-only view of the freshest value. The view is
	// valid only until the handle's next Read, View or Close call: the
	// protocol pins the underlying slot exactly that long. Callers must
	// not modify the returned slice.
	View() ([]byte, error)
}

// Register is a multi-word atomic (1,N) register.
type Register interface {
	// NewReader allocates a reader handle. At most MaxReaders handles
	// may be live at once.
	NewReader() (Reader, error)
	// Writer returns the register's single writer endpoint. All calls
	// return the same underlying writer; it is the caller's duty to use
	// it from one goroutine at a time.
	Writer() Writer
	// MaxReaders reports the reader capacity N.
	MaxReaders() int
	// MaxValueSize reports the largest value Write accepts.
	MaxValueSize() int
	// Name identifies the algorithm ("arc", "rf", "peterson", "lock").
	Name() string
}

// Config parametrizes register construction. The zero value is not valid:
// use Validate to apply defaults and bounds-check.
type Config struct {
	// MaxReaders is N, the number of concurrently live reader handles.
	MaxReaders int
	// MaxValueSize is the largest value, in bytes, a Write may publish.
	// Slot buffers are pre-allocated at this size (the paper pre-allocates
	// with mmap; §3.3 notes dynamic allocation is an orthogonal choice).
	MaxValueSize int
	// Initial, if non-nil, is the register's initial value (Algorithm 1
	// posts it into slot 0). If nil, the register initially holds a
	// single zero byte.
	Initial []byte
}

// DefaultMaxValueSize is used when Config.MaxValueSize is zero: one 4KB
// page, the smallest register size in the paper's evaluation.
const DefaultMaxValueSize = 4096

// Validate applies defaults and rejects impossible configurations.
// algLimit is the algorithm's architectural reader bound (2³²−2 for ARC,
// 58 for RF, practically unbounded for Peterson and the lock register).
func (c *Config) Validate(algLimit uint64) error {
	if c.MaxReaders <= 0 {
		return fmt.Errorf("register: MaxReaders must be positive, got %d", c.MaxReaders)
	}
	if uint64(c.MaxReaders) > algLimit {
		return fmt.Errorf("register: MaxReaders %d exceeds the algorithm limit %d", c.MaxReaders, algLimit)
	}
	if c.MaxValueSize == 0 {
		c.MaxValueSize = DefaultMaxValueSize
	}
	if c.MaxValueSize < 0 {
		return fmt.Errorf("register: MaxValueSize must be positive, got %d", c.MaxValueSize)
	}
	if len(c.Initial) > c.MaxValueSize {
		return fmt.Errorf("register: initial value (%d bytes) exceeds MaxValueSize (%d)",
			len(c.Initial), c.MaxValueSize)
	}
	return nil
}

// InitialOrDefault returns the configured initial value, or the one-byte
// default when none was supplied.
func (c *Config) InitialOrDefault() []byte {
	if c.Initial != nil {
		return c.Initial
	}
	return []byte{0}
}

// ReadStats counts the work a reader handle performed. Implementations
// update the counters with plain stores on the handle's own goroutine;
// collect them only after the goroutine has quiesced (e.g. after a
// WaitGroup join).
type ReadStats struct {
	// Ops is the number of completed reads.
	Ops uint64
	// FastPath counts reads served with zero RMW instructions — ARC's
	// R1–R2 path. Always zero for RF (which issues a FetchAndOr on every
	// read) and for the other baselines.
	FastPath uint64
	// RMW counts read-modify-write instructions executed by reads:
	// paper §1's claim that ARC "limits RMW instructions on reads" is
	// measured from this field versus RF's.
	RMW uint64
	// Fallbacks counts Peterson reads that exhausted both optimistic
	// copies and returned the per-reader copy buffer.
	Fallbacks uint64
	// Retries counts second optimistic attempts (Peterson) or lock
	// acquisition retry rounds (lock register).
	Retries uint64
}

// Add accumulates other into s.
func (s *ReadStats) Add(other ReadStats) {
	s.Ops += other.Ops
	s.FastPath += other.FastPath
	s.RMW += other.RMW
	s.Fallbacks += other.Fallbacks
	s.Retries += other.Retries
}

// Snapshot renders the counters as a Stats-tree node (internal/obs).
// The struct stays the quiescent-collection carrier it always was; the
// node is the view the unified Stats tree and expvar export consume.
func (s ReadStats) Snapshot() obs.Snapshot {
	sn := obs.Snapshot{Name: "reads"}
	sn.Put("ops", s.Ops)
	sn.Put("fast_path", s.FastPath)
	sn.Put("rmw", s.RMW)
	sn.Put("fallbacks", s.Fallbacks)
	sn.Put("retries", s.Retries)
	return sn
}

// WriteStats counts the work the writer performed.
type WriteStats struct {
	// Ops is the number of completed writes.
	Ops uint64
	// RMW counts read-modify-write instructions executed by writes.
	RMW uint64
	// ScanSteps is the total number of slots probed searching for a free
	// slot (ARC W1, RF's trace scan). ScanSteps/Ops near 1 demonstrates
	// the §3.4 amortized-constant-time claim.
	ScanSteps uint64
	// HintHits counts writes whose free slot came from the reader-posted
	// hint (ARC §3.4).
	HintHits uint64
	// CopyOuts counts extra value copies made for readers (Peterson's
	// per-reader copy buffers) — the multiple-copy cost ARC avoids.
	CopyOuts uint64
	// LockSpins counts acquisition retry rounds for the lock register.
	LockSpins uint64
}

// Add accumulates other into s.
func (s *WriteStats) Add(other WriteStats) {
	s.Ops += other.Ops
	s.RMW += other.RMW
	s.ScanSteps += other.ScanSteps
	s.HintHits += other.HintHits
	s.CopyOuts += other.CopyOuts
	s.LockSpins += other.LockSpins
}

// Snapshot renders the counters as a Stats-tree node (see
// ReadStats.Snapshot).
func (s WriteStats) Snapshot() obs.Snapshot {
	sn := obs.Snapshot{Name: "writes"}
	sn.Put("ops", s.Ops)
	sn.Put("rmw", s.RMW)
	sn.Put("scan_steps", s.ScanSteps)
	sn.Put("hint_hits", s.HintHits)
	sn.Put("copy_outs", s.CopyOuts)
	sn.Put("lock_spins", s.LockSpins)
	return sn
}

// StatReader is implemented by reader handles that expose ReadStats.
type StatReader interface {
	ReadStats() ReadStats
}

// FreshnessProber is implemented by readers that can report, without
// performing a read, whether the value they last returned is still the
// freshest one. ARC answers this with a single atomic load and no RMW
// instruction (the R1 comparison of its fast path, exposed); RF answers
// it with a load of its sync word. Pollers use it to skip deserialization
// when nothing changed.
type FreshnessProber interface {
	// Fresh reports whether the handle's last View/Read still returns
	// the register's current value. A handle that has never read reports
	// false.
	Fresh() bool
}

// FreshViewer is implemented by readers whose zero-copy View can also
// report whether it returned a different publication than the handle's
// previous read — a combined probe-and-fetch. For ARC the unchanged case
// is the R1–R2 fast path: one atomic load, zero RMW instructions, and the
// caller learns it may keep using whatever it derived from the previous
// view (decoded headers, parsed structures). Compositions over several
// registers (internal/mnreg) use this to skip re-decoding components that
// did not change, paying one load per unchanged component.
type FreshViewer interface {
	// ViewFresh returns the freshest value without copying, like
	// Viewer.View, plus changed: false when the view is the same
	// publication the handle's previous View/ViewFresh/Read returned.
	// The first read on a handle always reports changed == true. The
	// view's validity rules are those of Viewer.View.
	ViewFresh() (view []byte, changed bool, err error)
}

// StatWriter is implemented by writers that expose WriteStats.
type StatWriter interface {
	WriteStats() WriteStats
}

// Caps declares which optional capabilities a register's handles
// implement, making capability discovery a first-class constant of each
// algorithm instead of per-handle interface assertions. The facade
// (package arcreg) reads it once at construction; the optional
// interfaces above remain the operational contract the handles satisfy.
type Caps struct {
	// ZeroCopyView: readers implement Viewer.
	ZeroCopyView bool
	// FreshProbe: readers implement FreshnessProber.
	FreshProbe bool
	// FreshView: readers implement FreshViewer.
	FreshView bool
	// ReadStats: readers implement StatReader.
	ReadStats bool
	// WriteStats: the writer implements StatWriter.
	WriteStats bool
	// WaitFreeRead / WaitFreeWrite: the operation completes in a bounded
	// number of its own steps regardless of other processes (false for
	// the lock register on both sides, for seqlock reads, and for
	// Left-Right writes).
	WaitFreeRead  bool
	WaitFreeWrite bool
}

// CapabilityReporter is implemented by registers that publish their
// Caps. Every register in this repository implements it; CapsOf guards
// the assertion for out-of-tree implementations.
type CapabilityReporter interface {
	Caps() Caps
}

// CapsOf reports r's capabilities, or the zero (most conservative) Caps
// when r does not implement CapabilityReporter. Callers holding handles
// may still discover capabilities by interface assertion; a false Caps
// field is advisory, a true one is a promise.
func CapsOf(r Register) Caps {
	if cr, ok := r.(CapabilityReporter); ok {
		return cr.Caps()
	}
	return Caps{}
}
