package trace

import (
	"bufio"
	"io"
	"strconv"
)

// Sink receives trace records as a run emits them. JSONLSink streams records
// out; NullSink measures instrumentation overhead. Sinks are called from
// the single-threaded event loop and need no locking.
type Sink interface {
	Add(Record)
}

// Compile-time checks that every implementation satisfies Sink.
var (
	_ Sink = NullSink{}
	_ Sink = (*JSONLSink)(nil)
)

// NullSink discards every record. It exists so the cost of the trace hook
// itself (an interface call per event) can be benchmarked against the
// streaming sinks.
type NullSink struct{}

// Add implements Sink.
func (NullSink) Add(Record) {}

// JSONLSink streams records as JSON Lines: one object per record, in
// emission order, with a fixed field order —
//
//	{"t":123,"node":7,"kind":"deliver","arg":42}
//
// The encoding is hand-rolled over a scratch buffer so a record costs no
// allocations, and it is deterministic: two runs with equal seeds and equal
// fault specs write byte-identical streams (DESIGN.md §7). Writes go through
// a bufio.Writer; call Flush before reading the destination and check Err
// for any deferred write error.
type JSONLSink struct {
	w       *bufio.Writer
	err     error
	scratch []byte
	n       int
}

// NewJSONLSink returns a sink streaming to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w), scratch: make([]byte, 0, 96)}
}

// Add implements Sink.
func (s *JSONLSink) Add(r Record) {
	if s.err != nil {
		return
	}
	b := s.scratch[:0]
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, int64(r.Time), 10)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(r.Node), 10)
	b = append(b, `,"kind":"`...)
	b = append(b, r.Kind.String()...)
	b = append(b, `","arg":`...)
	b = strconv.AppendInt(b, r.Arg, 10)
	b = append(b, '}', '\n')
	s.scratch = b
	if _, err := s.w.Write(b); err != nil {
		s.err = err
		return
	}
	s.n++
}

// Len returns the number of records written so far.
func (s *JSONLSink) Len() int { return s.n }

// Flush drains the buffered writer and returns the first error seen.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error { return s.err }
