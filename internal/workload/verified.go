package workload

import (
	"arcreg/internal/history"
	"arcreg/internal/membuf"
	"arcreg/internal/register"
)

// VerifiedReader performs reads that are timed, integrity-checked and
// recorded into a history log — the correctness-harness counterpart of
// ReaderWork. Each completed operation contributes one Op that the
// history checker later judges against the paper's atomicity criterion.
type VerifiedReader struct {
	reader  register.Reader
	scratch []byte // Read's destination; nil when the handle views
	proc    int
	clock   *history.Clock
	log     *history.Log
}

// NewVerifiedReader builds a verified read body for process id proc,
// viewing when view is set (the register's Caps.ZeroCopyView) and
// copying into a maxSize scratch buffer otherwise.
func NewVerifiedReader(rd register.Reader, view bool, proc int, maxSize int, clock *history.Clock, log *history.Log) *VerifiedReader {
	v := &VerifiedReader{reader: rd, proc: proc, clock: clock, log: log}
	if !view {
		v.scratch = make([]byte, maxSize)
	}
	return v
}

// Do performs one verified read. Protocol errors are returned; integrity
// failures are recorded as torn reads for the checker to report.
func (v *VerifiedReader) Do() error {
	start := v.clock.Now()
	var (
		val []byte
		err error
	)
	if v.scratch == nil {
		val, err = v.reader.View()
	} else {
		var n int
		n, err = v.reader.Read(v.scratch)
		val = v.scratch[:max(n, 0)]
	}
	end := v.clock.Now()
	if err != nil {
		return err
	}
	version, verr := membuf.Verify(val)
	v.log.RecordRead(v.proc, start, end, version, verr != nil)
	return nil
}

// VerifiedWriter performs timed, version-stamped writes recorded into a
// history log.
type VerifiedWriter struct {
	writer  register.Writer
	buf     []byte
	version uint64
	clock   *history.Clock
	log     *history.Log
}

// NewVerifiedWriter builds the verified write body. Writes carry versions
// 1, 2, 3, …; version 0 is reserved for the initial value.
func NewVerifiedWriter(wr register.Writer, size int, clock *history.Clock, log *history.Log) *VerifiedWriter {
	if size < membuf.MinPayload {
		size = membuf.MinPayload
	}
	return &VerifiedWriter{writer: wr, buf: make([]byte, size), clock: clock, log: log}
}

// SeedValue returns a version-0 payload of the writer's size, suitable as
// the register's initial value so that the very first reads verify.
func (v *VerifiedWriter) SeedValue() []byte {
	seed := make([]byte, len(v.buf))
	membuf.Encode(seed, 0)
	return seed
}

// Do performs one verified write.
func (v *VerifiedWriter) Do() error {
	v.version++
	membuf.Encode(v.buf, v.version)
	start := v.clock.Now()
	err := v.writer.Write(v.buf)
	end := v.clock.Now()
	if err != nil {
		v.version--
		return err
	}
	v.log.RecordWrite(-1, start, end, v.version)
	return nil
}

// Versions reports how many writes completed.
func (v *VerifiedWriter) Versions() uint64 { return v.version }
