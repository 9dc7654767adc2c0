// Package leftright implements the Left-Right multi-word (1,N) register
// (Ramalhete & Correia, 2013) — the modern technique closest in spirit to
// ARC, included as an extension baseline beyond the paper's comparison
// set.
//
// Two full instances of the value exist. Readers are wait-free and
// population-oblivious: they announce presence on one of two anonymous
// version counters (an arrive/depart pair per version — compare ARC's
// anonymous presence counter), read the instance named by the leftRight
// word, and depart. The writer updates the instance readers are NOT on,
// flips leftRight, then toggles the version index and waits for the
// retired version's readers to drain before mirroring the update into the
// second instance.
//
// Properties, in the paper's terms:
//
//   - Reads: wait-free, constant time, zero-copy views supported (a view
//     pins its version until the handle's next operation, exactly like an
//     ARC slot pin).
//   - Writes: NOT wait-free — the writer blocks until readers drain, so a
//     preempted or stalled reader stalls the writer (ARC's writer, by
//     contrast, just avoids the pinned slot). This is the structural
//     trade the paper's N+2-slot design eliminates.
//   - Space: exactly 2 instances regardless of N (below ARC's N+2), the
//     other side of the same trade.
//   - Each value is written twice (once per instance) — a copy overhead
//     ARC avoids.
package leftright

import (
	"fmt"
	"sync"

	"arcreg/internal/membuf"
	"arcreg/internal/notify"
	"arcreg/internal/pad"
	"arcreg/internal/register"
)

// MaxReaders is administrative; readers are anonymous.
const MaxReaders = 1 << 20

// Register is the Left-Right (1,N) register.
type Register struct {
	// leftRight names the instance readers should use (0 or 1).
	leftRight pad.PaddedUint64
	// versionIndex names the indicator new readers arrive on.
	versionIndex pad.PaddedUint64
	// arrivals/departures form the two anonymous read indicators.
	arrivals   [2]pad.PaddedUint64
	departures [2]pad.PaddedUint64

	inst  [2][]byte
	sizes [2]int

	maxReaders   int
	maxValueSize int
	wstats       register.WriteStats
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

// New constructs a Left-Right register.
func New(cfg register.Config) (*Register, error) {
	if err := cfg.Validate(MaxReaders); err != nil {
		return nil, err
	}
	initial := cfg.InitialOrDefault()
	if cfg.MaxValueSize < len(initial) {
		cfg.MaxValueSize = len(initial)
	}
	r := &Register{
		maxReaders:   cfg.MaxReaders,
		maxValueSize: cfg.MaxValueSize,
	}
	for i := range r.inst {
		r.inst[i] = membuf.Aligned(cfg.MaxValueSize)
		r.sizes[i] = copy(r.inst[i], initial)
	}
	return r, nil
}

// Name implements register.Register.
func (r *Register) Name() string { return "leftright" }

// Caps implements register.CapabilityReporter: Left-Right reads are
// wait-free with zero-copy views, but writes block until reader
// versions drain.
func (r *Register) Caps() register.Caps {
	return register.Caps{
		ZeroCopyView: true,
		ReadStats:    true,
		WriteStats:   true,
		WaitFreeRead: true,
	}
}

// MaxReaders implements register.Register.
func (r *Register) MaxReaders() int { return r.maxReaders }

// MaxValueSize implements register.Register.
func (r *Register) MaxValueSize() int { return r.maxValueSize }

// Writer implements register.Register.
func (r *Register) Writer() register.Writer { return r }

// WriteStats implements register.StatWriter. LockSpins counts drain-wait
// rounds — the blocking component of Left-Right writes.
func (r *Register) WriteStats() register.WriteStats { return r.wstats }

// Write publishes a new value into both instances. Blocking: between the
// two instance updates the writer waits for the retired version's readers
// to drain.
func (r *Register) Write(p []byte) error {
	if len(p) > r.maxValueSize {
		return fmt.Errorf("%w: %d > %d", register.ErrValueTooLarge, len(p), r.maxValueSize)
	}
	// Update the instance readers are not directed to.
	lr := r.leftRight.Load()
	next := 1 - lr
	r.sizes[next] = copy(r.inst[next], p)
	r.leftRight.Store(next) // new readers go to the fresh instance

	// Toggle the version index and drain both indicators so nobody can
	// still be reading the old instance, then mirror the update into it.
	vi := r.versionIndex.Load()
	nvi := 1 - vi
	r.drain(nvi) // readers still on the *next* version from 2 toggles ago
	r.versionIndex.Store(nvi)
	r.drain(vi) // readers that arrived on the retired version

	r.sizes[lr] = copy(r.inst[lr], p)
	r.wstats.Ops++
	r.notify.Publish()
	return nil
}

// Notifier returns the register's publication sequencer: its epoch
// advances once per Write, after the new value is visible, and
// watchers park on its gate.
func (r *Register) Notifier() *notify.Sequencer { return &r.notify }

// drain spins until indicator vi is empty (arrivals == departures).
func (r *Register) drain(vi uint64) {
	var b pad.Backoff
	for {
		dep := r.departures[vi].Load()
		arr := r.arrivals[vi].Load()
		if arr == dep {
			return
		}
		r.wstats.LockSpins++
		b.Wait()
	}
}

// Reader is a per-goroutine read endpoint.
type Reader struct {
	reg    *Register
	pinned bool
	vi     uint64 // version indicator this handle arrived on
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

// arrive registers presence on the current version and returns the
// instance to read.
func (rd *Reader) arrive() []byte {
	reg := rd.reg
	vi := reg.versionIndex.Load()
	reg.arrivals[vi].Add(1)
	rd.stats.RMW++
	rd.vi = vi
	rd.pinned = true
	lr := reg.leftRight.Load()
	return reg.inst[lr][:reg.sizes[lr]]
}

// depart releases the pinned version, if any.
func (rd *Reader) depart() {
	if rd.pinned {
		rd.reg.departures[rd.vi].Add(1)
		rd.stats.RMW++
		rd.pinned = false
	}
}

// View returns the freshest value without copying. The view pins this
// handle's version until its next View, Read or Close; while pinned, the
// writer cannot complete (Left-Right's structural cost — contrast ARC,
// whose writer simply avoids the pinned slot).
func (rd *Reader) View() ([]byte, error) {
	if rd.closed {
		return nil, register.ErrReaderClosed
	}
	rd.depart()
	v := rd.arrive()
	rd.stats.Ops++
	return v, nil
}

// Read copies the freshest value into dst, arriving and departing within
// the call (the classical Left-Right read shape).
func (rd *Reader) Read(dst []byte) (int, error) {
	if rd.closed {
		return 0, register.ErrReaderClosed
	}
	rd.depart()
	v := rd.arrive()
	if len(dst) < len(v) {
		size := len(v)
		rd.depart()
		return size, register.ErrBufferTooSmall
	}
	n := copy(dst, v)
	rd.depart()
	rd.stats.Ops++
	return n, nil
}

// Close releases any pinned version and the handle.
func (rd *Reader) Close() error {
	if rd.closed {
		return register.ErrReaderClosed
	}
	rd.depart()
	rd.closed = true
	rd.reg.mu.Lock()
	rd.reg.liveReaders--
	rd.reg.mu.Unlock()
	return nil
}
