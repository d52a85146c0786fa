package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one request (or one sim
// setting) share ReqID; Parent is the index of the enclosing span, -1
// for a root.
type span struct {
	Name   string `json:"name"`
	ReqID  int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory for one traced run; write dumps
// them when the run ends. A nil recorder records nothing, so the same
// code times calls with tracing on and off.
type spanRecorder struct {
	epoch time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// begin opens a span and returns its index.
func (r *spanRecorder) begin(name string, req, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, ReqID: req, Parent: parent, Start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

// end closes span i.
func (r *spanRecorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].End = int64(time.Since(r.epoch))
}

// durations returns the durations of every span with the given name.
func (r *spanRecorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (r *spanRecorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// msOf converts durations to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
