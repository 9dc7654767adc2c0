// Package rf implements the Readers-Field (RF) wait-free multi-word atomic
// (1,N) register of Larsson, Gidenstam, Ha, Papatriantafilou and Tsigas
// ("Multiword atomic read/write registers on multiprocessor systems",
// Journal of Experimental Algorithmics 13, 2009). It is the closest prior
// work to ARC — the only other (1,N) register built on RMW instructions —
// and the paper's principal comparison baseline.
//
// RF steers coordination through one 64-bit word partitioned into a 6-bit
// buffer index and a 58-bit reader bitfield, one bit per named reader:
//
//	sync = index<<58 | readerMask
//
// A read FetchAndOrs the reader's bit into sync; the returned word names
// the freshest buffer. Because every read issues an RMW instruction — even
// when the register has not changed — RF pays the interconnect cost of an
// atomic on every read, which is precisely the overhead ARC's fast path
// removes (paper §1, §5). And because readers are named by bit position,
// at most 58 readers fit; ARC's anonymous counter lifts that to 2³²−2.
//
// The writer swaps in the new index with a zeroed mask, then records, for
// every reader bit observed in the swapped-out word, that the reader may
// still be reading the retired buffer (the trace). A buffer is reusable
// when it is neither the freshest one nor traced for any reader, so the
// free-buffer search is O(N) per write — versus ARC's amortized O(1).
//
// Like ARC, RF uses N+2 buffers and performs no intermediate copy: readers
// access the slot buffer directly.
package rf

import (
	"fmt"
	"math/bits"
	"sync"

	"arcreg/internal/membuf"
	"arcreg/internal/notify"
	"arcreg/internal/pad"
	"arcreg/internal/register"
	"arcreg/internal/word"
)

// MaxReaders is RF's architectural reader bound: 58 bits of the 64-bit
// sync word name readers; the remaining 6 address the N+2 ≤ 60 buffers.
const MaxReaders = word.RFMaxReaders

// Register is the RF (1,N) register. One goroutine writes; up to 58
// goroutines read, each through its own Reader handle.
type Register struct {
	// sync is the shared synchronization word: index<<58 | readerMask.
	sync pad.PaddedUint64

	bufs  [][]byte // N+2 pre-allocated value buffers
	sizes []int    // value length per buffer, writer-owned pre-publish

	maxReaders   int
	maxValueSize int

	// Writer-local state.
	curIdx uint32   // index published by the last write
	trace  []uint32 // trace[i]: buffer reader i may still be reading
	inUse  []bool   // scratch for the free-buffer scan
	wstats register.WriteStats
	// notify announces each publication to parked watchers: one store
	// plus one load of the (usually nil) gate pointer per Write, no RMW
	// and no allocation while nobody is parked.
	notify notify.Sequencer

	// Reader-id allocation.
	mu      sync.Mutex
	freeIDs []int
}

// noTrace marks a reader that has never been observed reading.
const noTrace = ^uint32(0)

var (
	_ register.Register = (*Register)(nil)
	_ register.Writer   = (*Register)(nil)
	_ register.Reader   = (*Reader)(nil)
)

// New constructs an RF register. cfg.MaxReaders must be ≤ 58.
func New(cfg register.Config) (*Register, error) {
	if err := cfg.Validate(MaxReaders); err != nil {
		return nil, err
	}
	initial := cfg.InitialOrDefault()
	if cfg.MaxValueSize < len(initial) {
		cfg.MaxValueSize = len(initial)
	}
	n := cfg.MaxReaders
	r := &Register{
		bufs:         membuf.Matrix(n+2, cfg.MaxValueSize),
		sizes:        make([]int, n+2),
		maxReaders:   n,
		maxValueSize: cfg.MaxValueSize,
		trace:        make([]uint32, n),
		inUse:        make([]bool, n+2),
		freeIDs:      make([]int, 0, n),
	}
	for i := range r.trace {
		r.trace[i] = noTrace
	}
	for id := n - 1; id >= 0; id-- {
		r.freeIDs = append(r.freeIDs, id)
	}
	r.sizes[0] = copy(r.bufs[0], initial)
	r.sync.Store(word.PackSync(0, 0))
	r.curIdx = 0
	return r, nil
}

// Name implements register.Register.
func (r *Register) Name() string { return "rf" }

// Caps implements register.Register: RF views without copying and
// probes freshness (via its sync word), but has no combined
// probe-and-fetch; all operations are wait-free.
func (r *Register) Caps() register.Caps {
	return register.Caps{
		ZeroCopyView:  true,
		FreshProbe:    true,
		WaitFreeRead:  true,
		WaitFreeWrite: true,
	}
}

// MaxReaders implements register.Register.
func (r *Register) MaxReaders() int { return r.maxReaders }

// MaxValueSize implements register.Register.
func (r *Register) MaxValueSize() int { return r.maxValueSize }

// BufferCount reports the number of value buffers (always MaxReaders+2).
func (r *Register) BufferCount() int { return len(r.bufs) }

// Writer implements register.Register.
func (r *Register) Writer() register.Writer { return r }

// WriteStats implements register.Writer.
func (r *Register) WriteStats() register.WriteStats { return r.wstats }

// Write publishes a new value. Wait-free; O(N) due to the trace scan.
func (r *Register) Write(p []byte) error {
	if len(p) > r.maxValueSize {
		return fmt.Errorf("%w: %d > %d", register.ErrValueTooLarge, len(p), r.maxValueSize)
	}
	idx := r.findFreeBuffer()
	r.sizes[idx] = copy(r.bufs[idx], p)
	// Publish: new index, empty reader field.
	old := r.sync.Swap(word.PackSync(idx, 0))
	r.wstats.RMW++
	// Every reader bit collected since the previous swap names a reader
	// that obtained the retired index and may still be dereferencing it.
	oldIdx := word.SyncIndex(old)
	mask := word.SyncMask(old)
	for mask != 0 {
		id := bits.TrailingZeros64(mask)
		mask &^= uint64(1) << uint(id)
		r.trace[id] = oldIdx
	}
	r.curIdx = idx
	r.wstats.Ops++
	r.notify.Publish()
	return nil
}

// Notifier returns the register's publication sequencer: its epoch
// advances once per Write, after the new value is visible, and
// watchers park on its gate.
func (r *Register) Notifier() *notify.Sequencer { return &r.notify }

// findFreeBuffer returns a buffer that is neither published nor traced —
// the O(N) scan that dominates RF's write cost.
func (r *Register) findFreeBuffer() uint32 {
	for i := range r.inUse {
		r.inUse[i] = false
	}
	r.inUse[r.curIdx] = true
	for _, t := range r.trace {
		if t != noTrace {
			r.inUse[t] = true
		}
	}
	r.wstats.ScanSteps += uint64(1 + len(r.trace)) // the exclusion build is the scan
	for i, used := range r.inUse {
		r.wstats.ScanSteps++
		if !used {
			return uint32(i)
		}
	}
	// Unreachable: at most N traced + 1 published < N+2 buffers.
	panic("rf: no free buffer; N+2 invariant violated")
}

// Reader is a per-goroutine read endpoint identified by a bit position in
// the sync word.
type Reader struct {
	reg     *Register
	bit     uint64
	id      int
	lastIdx uint32 // buffer returned by the last View/Read
	hasRead bool
	closed  bool
	stats   register.ReadStats
}

// NewReader implements register.Register, allocating one of the 58 reader
// identities.
func (r *Register) NewReader() (register.Reader, error) {
	rd, err := r.newReader()
	if err != nil {
		return nil, err
	}
	return rd, nil
}

// NewReaderHandle is the concrete-typed variant of NewReader.
func (r *Register) NewReaderHandle() (*Reader, error) { return r.newReader() }

func (r *Register) newReader() (*Reader, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.freeIDs) == 0 {
		return nil, register.ErrTooManyReaders
	}
	id := r.freeIDs[len(r.freeIDs)-1]
	r.freeIDs = r.freeIDs[:len(r.freeIDs)-1]
	return &Reader{reg: r, id: id, bit: word.ReaderBit(id)}, nil
}

// ID reports the reader's bit position, for tests.
func (rd *Reader) ID() int { return rd.id }

// ReadStats implements register.Reader.
func (rd *Reader) ReadStats() register.ReadStats { return rd.stats }

// View returns the freshest value without copying. Unlike ARC, obtaining
// it always costs one RMW instruction (the FetchAndOr), even when the
// register has not changed since the handle's last read. The view stays
// valid until the handle's next View, Read or Close: the writer's trace
// conservatively protects the buffer exactly that long.
func (rd *Reader) View() ([]byte, error) {
	if rd.closed {
		return nil, register.ErrReaderClosed
	}
	reg := rd.reg
	old := reg.sync.Or(rd.bit) // FetchAndOr: announce and locate in one RMW
	rd.stats.RMW++
	idx := word.SyncIndex(old)
	rd.lastIdx = idx
	rd.hasRead = true
	rd.stats.Ops++
	return reg.bufs[idx][:reg.sizes[idx]], nil
}

// Fresh implements register.Reader with a plain load of the sync word. Note the asymmetry with ARC: RF can PROBE freshness cheaply, but
// acting on it (re-reading) still costs a FetchAndOr, whereas ARC's whole
// re-read is RMW-free.
func (rd *Reader) Fresh() bool {
	if rd.closed || !rd.hasRead {
		return false
	}
	return word.SyncIndex(rd.reg.sync.Load()) == rd.lastIdx
}

// Read copies the freshest value into dst.
func (rd *Reader) Read(dst []byte) (int, error) {
	v, err := rd.View()
	if err != nil {
		return 0, err
	}
	if len(dst) < len(v) {
		return len(v), register.ErrBufferTooSmall
	}
	return copy(dst, v), nil
}

// Close releases the reader identity. The identity's trace entry and any
// set bit remain — they conservatively protect a buffer until the identity
// is reused, which is safe (protection errs toward keeping buffers).
func (rd *Reader) Close() error {
	if rd.closed {
		return register.ErrReaderClosed
	}
	rd.closed = true
	reg := rd.reg
	reg.mu.Lock()
	reg.freeIDs = append(reg.freeIDs, rd.id)
	reg.mu.Unlock()
	return nil
}

// CheckInvariants validates writer-side bookkeeping at quiescence.
func (r *Register) CheckInvariants() error {
	if int(r.curIdx) >= len(r.bufs) {
		return fmt.Errorf("rf: current index %d out of range", r.curIdx)
	}
	if got := word.SyncIndex(r.sync.Load()); got != r.curIdx {
		return fmt.Errorf("rf: sync index %d != writer curIdx %d", got, r.curIdx)
	}
	excluded := 1
	for _, t := range r.trace {
		if t == noTrace {
			continue
		}
		if int(t) >= len(r.bufs) {
			return fmt.Errorf("rf: trace entry %d out of range", t)
		}
		excluded++
	}
	if excluded >= len(r.bufs) {
		return fmt.Errorf("rf: %d buffers excluded, none free (N+2 invariant violated)", excluded)
	}
	return nil
}
