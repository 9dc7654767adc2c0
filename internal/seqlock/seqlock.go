// Package seqlock implements a sequence-lock multi-word (1,N) register —
// the folklore mechanism (Linux kernel seqcount, Lameter 2005) that
// occupies the design point between the paper's lock-based comparator and
// its wait-free registers, included here as an extension baseline: the
// "scattered seqlock variants" that exist in systems practice without the
// paper's guarantees.
//
// A single buffer is guarded by a version word. The writer makes it odd,
// mutates the buffer, makes it even again. Readers double-collect: sample
// the version (retry while odd), copy the buffer, resample; a change means
// interference and the copy is discarded.
//
// Properties, in the paper's terms:
//
//   - Writes are wait-free and cheap: one copy, two version stores, no
//     RMW (single writer), one buffer total.
//   - Reads are only LOCK-FREE: a reader that keeps colliding with writes
//     retries without bound — exactly the progress property Lamport's 1977
//     construction had and that the paper's wait-free designs improve on.
//     Under a saturating writer, reader tail latency explodes; the
//     harness's steal simulation makes this vivid (a writer preempted
//     mid-write leaves the version odd and EVERY reader spinning).
//   - Reads copy the value (no zero-copy view is possible: the single
//     buffer is overwritten in place).
//
// The buffer is word-atomic (membuf.StoreWords/LoadWords) for the same
// reason as Peterson's: torn reads are part of the design and must be
// race-detector-clean.
package seqlock

import (
	"fmt"
	"sync"

	"arcreg/internal/membuf"
	"arcreg/internal/notify"
	"arcreg/internal/pad"
	"arcreg/internal/register"
)

// MaxReaders is administrative; the algorithm is population-oblivious
// (readers need no identity at all).
const MaxReaders = 1 << 20

// Register is the seqlock (1,N) register.
type Register struct {
	// seq is even when the buffer is stable, odd while a write is in
	// progress.
	seq pad.PaddedUint64

	buf          []uint64
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
	_ register.Register = (*Register)(nil)
	_ register.Writer   = (*Register)(nil)
	_ register.Reader   = (*Reader)(nil)
)

// New constructs a seqlock register.
func New(cfg register.Config) (*Register, error) {
	if err := cfg.Validate(MaxReaders); err != nil {
		return nil, err
	}
	initial := cfg.InitialOrDefault()
	if cfg.MaxValueSize < len(initial) {
		cfg.MaxValueSize = len(initial)
	}
	r := &Register{
		buf:          membuf.AlignedWords(membuf.WordsFor(cfg.MaxValueSize)),
		maxReaders:   cfg.MaxReaders,
		maxValueSize: cfg.MaxValueSize,
	}
	membuf.StoreWords(r.buf, initial)
	return r, nil
}

// Name implements register.Register.
func (r *Register) Name() string { return "seqlock" }

// Caps implements register.Register: seqlock writes are wait-free over a
// single buffer, but reads retry unboundedly while a write is in flight
// (lock-free only) and must copy out to validate.
func (r *Register) Caps() register.Caps {
	return register.Caps{
		WaitFreeWrite: true,
	}
}

// MaxReaders implements register.Register.
func (r *Register) MaxReaders() int { return r.maxReaders }

// MaxValueSize implements register.Register.
func (r *Register) MaxValueSize() int { return r.maxValueSize }

// Writer implements register.Register.
func (r *Register) Writer() register.Writer { return r }

// WriteStats implements register.Writer.
func (r *Register) WriteStats() register.WriteStats { return r.wstats }

// Write publishes a new value in place. Wait-free; single buffer; the
// odd/even fence pair is the entire protocol.
func (r *Register) Write(p []byte) error {
	if len(p) > r.maxValueSize {
		return fmt.Errorf("%w: %d > %d", register.ErrValueTooLarge, len(p), r.maxValueSize)
	}
	seq := r.seq.Load()
	r.seq.Store(seq + 1) // odd: write in progress
	membuf.StoreWords(r.buf, p)
	r.seq.Store(seq + 2) // even: stable
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

// ReadStats implements register.Reader. Retries counts discarded
// collection attempts — the lock-free (not wait-free) cost of seqlock.
func (rd *Reader) ReadStats() register.ReadStats { return rd.stats }

// View returns ErrNoView: a seqlock read copies out to validate
// (Caps.ZeroCopyView false).
func (rd *Reader) View() ([]byte, error) { return nil, register.ErrNoView }

// Fresh reports false: seqlock has no freshness probe (Caps.FreshProbe
// false).
func (rd *Reader) Fresh() bool { return false }

// Read copies the freshest stable value into dst. Lock-free: it retries
// until a collect is undisturbed, with no upper bound on attempts.
func (rd *Reader) Read(dst []byte) (int, error) {
	if rd.closed {
		return 0, register.ErrReaderClosed
	}
	reg := rd.reg
	var b pad.Backoff
	for {
		s1 := reg.seq.Load()
		if s1&1 == 1 { // write in progress: wait it out
			rd.stats.Retries++
			b.Wait()
			continue
		}
		size := membuf.LoadWords(reg.buf, dst, reg.maxValueSize)
		s2 := reg.seq.Load()
		if s1 == s2 {
			rd.stats.Ops++
			if size > len(dst) {
				return size, register.ErrBufferTooSmall
			}
			return size, nil
		}
		rd.stats.Retries++
		b.Wait()
	}
}

// Close releases the handle.
func (rd *Reader) Close() error {
	if rd.closed {
		return register.ErrReaderClosed
	}
	rd.closed = true
	rd.reg.mu.Lock()
	rd.reg.liveReaders--
	rd.reg.mu.Unlock()
	return nil
}
