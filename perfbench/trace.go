package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into the program: its name,
// start and end (microseconds since the run began), the span that caused
// it, and the operation (setup, round or job) it belongs to.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Op      int64   `json:"op"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tracer keeps the spans of a traced run in memory until the run ends.  A
// nil tracer (an untraced run) records nothing and allocates no IDs, so the
// timed path of an untraced run pays one nil check per call.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, so children can name a parent recorded after them.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a span under a reserved ID (0 reserves a fresh one).
func (t *tracer) record(id, parent, op int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		StartUs: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		EndUs:   float64(end.Sub(t.t0).Nanoseconds()) / 1e3}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
