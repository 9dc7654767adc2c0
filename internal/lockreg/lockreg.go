// Package lockreg implements the lock-based multi-word (1,N) register used
// as the ARC paper's non-wait-free comparator (§5). A single value buffer
// is guarded by a reader/writer spinlock built on RMW instructions
// (internal/spin); reads share the lock, writes take it exclusively.
//
// The register is linearizable but NOT wait-free: a reader preempted while
// holding the lock stalls the writer (and, through writer preference,
// subsequent readers), and a preempted writer stalls everyone. That
// sensitivity to lock-holder preemption is what the paper's virtualized
// (Fig. 2) and oversubscribed (Fig. 3) experiments exhibit.
//
// To let the same benchmarks drive all algorithms, the reader supports the
// View protocol with pinning semantics matching ARC and RF: View acquires
// the read lock and holds it until the handle's next View, Read or Close.
// The view is thus a true zero-copy window — at the price that holding it
// blocks the writer, which is precisely the algorithmic difference the
// paper measures.
package lockreg

import (
	"fmt"
	"sync"

	"arcreg/internal/membuf"
	"arcreg/internal/notify"
	"arcreg/internal/register"
	"arcreg/internal/spin"
)

// MaxReaders is administrative; the lock itself has no reader limit.
const MaxReaders = 1 << 20

// Register is the lock-based (1,N) register.
type Register struct {
	lock spin.RWLock

	// buf and size are guarded by lock.
	buf  []byte
	size int

	maxReaders   int
	maxValueSize int

	wstats register.WriteStats
	// notify announces each publication to parked watchers: one store
	// plus one load of the (usually nil) gate pointer per Write, no RMW
	// and no allocation while nobody is parked.
	notify notify.Sequencer

	mu          sync.Mutex
	liveReaders int
}

var (
	_ register.Register   = (*Register)(nil)
	_ register.Writer     = (*Register)(nil)
	_ register.StatWriter = (*Register)(nil)
	_ register.Reader     = (*Reader)(nil)
	_ register.Viewer     = (*Reader)(nil)
	_ register.StatReader = (*Reader)(nil)
)

// New constructs a lock-based register.
func New(cfg register.Config) (*Register, error) {
	if err := cfg.Validate(MaxReaders); err != nil {
		return nil, err
	}
	initial := cfg.InitialOrDefault()
	if cfg.MaxValueSize < len(initial) {
		cfg.MaxValueSize = len(initial)
	}
	r := &Register{
		buf:          membuf.Aligned(cfg.MaxValueSize),
		maxReaders:   cfg.MaxReaders,
		maxValueSize: cfg.MaxValueSize,
	}
	r.size = copy(r.buf, initial)
	return r, nil
}

// Name implements register.Register.
func (r *Register) Name() string { return "lock" }

// Caps implements register.CapabilityReporter: the lock register views
// without copying (a live view holds the read lock) but is not
// wait-free in either direction — the comparator's defining weakness.
func (r *Register) Caps() register.Caps {
	return register.Caps{
		ZeroCopyView: true,
		ReadStats:    true,
		WriteStats:   true,
	}
}

// MaxReaders implements register.Register.
func (r *Register) MaxReaders() int { return r.maxReaders }

// MaxValueSize implements register.Register.
func (r *Register) MaxValueSize() int { return r.maxValueSize }

// Writer implements register.Register.
func (r *Register) Writer() register.Writer { return r }

// WriteStats implements register.StatWriter.
func (r *Register) WriteStats() register.WriteStats { return r.wstats }

// Write stores a new value under the exclusive lock. Blocking: it spins
// until every reader view is released.
func (r *Register) Write(p []byte) error {
	if len(p) > r.maxValueSize {
		return fmt.Errorf("%w: %d > %d", register.ErrValueTooLarge, len(p), r.maxValueSize)
	}
	spins := r.lock.Lock()
	r.size = copy(r.buf, p)
	r.lock.Unlock()
	r.wstats.LockSpins += spins
	r.wstats.RMW += 2 // acquire CAS + release CAS (uncontended floor)
	r.wstats.Ops++
	r.notify.Publish()
	return nil
}

// Notifier returns the register's publication sequencer: its epoch
// advances once per Write, after the new value is visible, and
// watchers park on its gate.
func (r *Register) Notifier() *notify.Sequencer { return &r.notify }

// Reader is a per-goroutine read endpoint.
type Reader struct {
	reg    *Register
	pinned bool // this handle currently holds the read lock (live View)
	closed bool
	stats  register.ReadStats
}

// NewReader implements register.Register.
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
	if r.liveReaders >= r.maxReaders {
		return nil, register.ErrTooManyReaders
	}
	r.liveReaders++
	return &Reader{reg: r}, nil
}

// LiveReaders reports open handles.
func (r *Register) LiveReaders() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.liveReaders
}

// ReadStats implements register.StatReader.
func (rd *Reader) ReadStats() register.ReadStats { return rd.stats }

// unpin releases a held read lock, if any.
func (rd *Reader) unpin() {
	if rd.pinned {
		rd.reg.lock.RUnlock()
		rd.pinned = false
	}
}

// View returns the register buffer under the read lock, holding the lock
// until this handle's next View, Read or Close. While any view is live the
// writer blocks — the defining cost of the lock-based design.
func (rd *Reader) View() ([]byte, error) {
	if rd.closed {
		return nil, register.ErrReaderClosed
	}
	rd.unpin()
	spins := rd.reg.lock.RLock()
	rd.pinned = true
	rd.stats.Retries += spins - 1
	rd.stats.RMW++ // the acquisition CAS
	rd.stats.Ops++
	return rd.reg.buf[:rd.reg.size], nil
}

// Read copies the freshest value into dst under the read lock, releasing
// it before returning.
func (rd *Reader) Read(dst []byte) (int, error) {
	if rd.closed {
		return 0, register.ErrReaderClosed
	}
	rd.unpin()
	spins := rd.reg.lock.RLock()
	size := rd.reg.size
	if len(dst) < size {
		rd.reg.lock.RUnlock()
		return size, register.ErrBufferTooSmall
	}
	n := copy(dst, rd.reg.buf[:size])
	rd.reg.lock.RUnlock()
	rd.stats.Retries += spins - 1
	rd.stats.RMW += 2 // acquire + release
	rd.stats.Ops++
	return n, nil
}

// Close releases any held view and the handle.
func (rd *Reader) Close() error {
	if rd.closed {
		return register.ErrReaderClosed
	}
	rd.unpin()
	rd.closed = true
	rd.reg.mu.Lock()
	rd.reg.liveReaders--
	rd.reg.mu.Unlock()
	return nil
}
