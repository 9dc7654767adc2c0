// Package workload implements the operation bodies of the paper's two
// experimental workloads (§5), in the spirit of the Hold model the paper
// cites: every thread repeatedly performs operations on the register with
// a configurable amount of attached processing.
//
//   - Dummy mode — "read and write operations are actually 'dummy'
//     operations which only execute the [register] algorithms … each write
//     operation simply copies a same content to the register, and a read
//     operation only retrieves the pointer to the valid register buffer."
//     Logical and physical contention on the register is maximal; this is
//     the workload that exposes the synchronization cost difference
//     between the algorithms.
//
//   - Processing mode — "a write actually generates some data, and a read
//     scans the whole content of the retrieved buffer", attaching a
//     size-proportional latency to every operation.
//
// Algorithms that expose zero-copy views (ARC, RF, the lock register)
// retrieve the buffer without copying, exactly as in the paper's C
// implementation; Peterson reads copy inherently, which is its documented
// structural cost. The checksum sink defeats dead-code elimination.
package workload

import (
	"fmt"

	"arcreg/internal/membuf"
	"arcreg/internal/register"
)

// Mode selects the §5 workload variant.
type Mode uint8

const (
	// Dummy is the zero-processing, maximal-contention workload.
	Dummy Mode = iota
	// Processing attaches data generation to writes and a full scan to
	// reads.
	Processing
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Dummy {
		return "dummy"
	}
	return "processing"
}

// ParseMode converts a CLI string.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "dummy":
		return Dummy, nil
	case "processing":
		return Processing, nil
	}
	return 0, fmt.Errorf("workload: unknown mode %q (want dummy or processing)", s)
}

// ReaderWork drives one reader handle through the selected workload. One
// instance per goroutine.
type ReaderWork struct {
	reader  register.Reader
	scratch []byte // Read's destination; nil when the handle views
	mode    Mode
	sink    uint64
}

// NewReaderWork prepares the read operation body for rd: a zero-copy
// View when view is set (the register's Caps.ZeroCopyView), else a Read
// into a maxSize scratch buffer.
func NewReaderWork(rd register.Reader, view bool, mode Mode, maxSize int) *ReaderWork {
	w := &ReaderWork{reader: rd, mode: mode}
	if !view {
		w.scratch = make([]byte, maxSize)
	}
	return w
}

// Do performs one read operation.
func (w *ReaderWork) Do() error {
	var (
		val []byte
		err error
	)
	if w.scratch == nil {
		val, err = w.reader.View()
		if err != nil {
			return err
		}
	} else {
		var n int
		n, err = w.reader.Read(w.scratch)
		if err != nil {
			return err
		}
		val = w.scratch[:n]
	}
	switch w.mode {
	case Dummy:
		// Pointer retrieval only; touch one byte so the view cannot be
		// optimized away.
		w.sink += uint64(len(val))
		if len(val) > 0 {
			w.sink += uint64(val[0])
		}
	case Processing:
		// "a read scans the whole content of the retrieved buffer".
		w.sink += membuf.Checksum(val)
	}
	return nil
}

// Sink exposes the accumulated checksum so the compiler must keep the
// reads; harness code stores it once after the run.
func (w *ReaderWork) Sink() uint64 { return w.sink }

// WriterWork drives the single writer through the selected workload.
type WriterWork struct {
	writer  register.Writer
	mode    Mode
	buf     []byte
	version uint64
}

// NewWriterWork prepares the write operation body. size is the value size
// for every write in this workload (the paper sweeps 4KB/32KB/128KB).
func NewWriterWork(wr register.Writer, mode Mode, size int) *WriterWork {
	if size < membuf.MinPayload {
		size = membuf.MinPayload
	}
	w := &WriterWork{writer: wr, mode: mode, buf: make([]byte, size)}
	// Dummy mode posts the same pre-built content on every write.
	membuf.Encode(w.buf, 0)
	return w
}

// Do performs one write operation.
func (w *WriterWork) Do() error {
	if w.mode == Processing {
		// "a write actually generates some data": refill the payload
		// with fresh version-dependent content before publishing.
		w.version++
		membuf.Encode(w.buf, w.version)
	}
	return w.writer.Write(w.buf)
}

// Version reports the number of distinct values generated (Processing).
func (w *WriterWork) Version() uint64 { return w.version }
