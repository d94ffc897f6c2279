// Package serve is the long-running service front of the runtime: a daemon
// (cmd/cuccd) that accepts compile+launch jobs over a small length-prefixed
// JSON protocol, schedules them across cluster sessions with per-tenant
// weighted fairness and bounded admission, and returns results, stats, and
// per-job metrics.  It is the layer that turns the one-shot CLIs into the
// paper's end state: idle CPU nodes absorbing migrated GPU work as serving
// capacity.
//
// The wire protocol reuses the transport layer's framing idiom: a 4-byte
// little-endian length prefix followed by a JSON body, with frames capped
// at transport.MaxFrameBytes.  Requests and responses are correlated by a
// client-assigned ID, so one connection can pipeline many jobs.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"cucc/internal/core"
	"cucc/internal/transport"
)

// Request is one compile+launch job submission.  Exactly one of Program
// (suite mode: run a named evaluation program at Small scale and verify its
// output) or Source (source mode: compile mini-CUDA source and launch
// Kernel with the given geometry and args) must be set.
type Request struct {
	// ID correlates the response on a pipelined connection; the client
	// assigns it and the server echoes it.
	ID uint64 `json:"id"`
	// Tenant names the submitting tenant for fair scheduling; empty maps
	// to "default".
	Tenant string `json:"tenant,omitempty"`
	// Weight is the tenant's scheduling weight (dispatch share relative to
	// other tenants; <= 0 means 1).  The first request that names a tenant
	// fixes its weight.
	Weight int `json:"weight,omitempty"`

	// Program selects suite mode: a named evaluation program (see
	// suites.Registry) built at Small scale, executed, and checked.
	Program string `json:"program,omitempty"`

	// Source selects source mode: mini-CUDA source compiled on the server
	// (cached across jobs), launching Kernel over Grid x Block with Args.
	Source string    `json:"source,omitempty"`
	Kernel string    `json:"kernel,omitempty"`
	GridX  int       `json:"grid_x,omitempty"`
	GridY  int       `json:"grid_y,omitempty"`
	BlockX int       `json:"block_x,omitempty"`
	BlockY int       `json:"block_y,omitempty"`
	Args   []ArgSpec `json:"args,omitempty"`

	// Nodes / Workers / Engine / Collective configure the job's cluster
	// (0/empty = server defaults).  Engine is "vm" or "interp" ("vm-lanes"
	// is accepted as a synonym for "vm"); it applies only to kernels
	// without a registered native, so suite jobs whose kernels have one run
	// the native whatever it says.
	Nodes      int    `json:"nodes,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	Engine     string `json:"engine,omitempty"`
	Collective string `json:"collective,omitempty"`

	// DeadlineMs bounds queue wait + execution; past it the job's cluster
	// is aborted and the job fails with a deadline error (0 = server
	// default).
	DeadlineMs int `json:"deadline_ms,omitempty"`
	// TraceCap bounds the job's trace capture (events retained; 0 = server
	// default).
	TraceCap int `json:"trace_cap,omitempty"`
}

// ArgSpec describes one kernel launch argument of a source-mode job.
type ArgSpec struct {
	// Kind is "buf", "int", or "float".
	Kind string `json:"kind"`
	// Elem is the buffer element type: "f32", "i32", or "u8" (buf only).
	Elem string `json:"elem,omitempty"`
	// Count is the buffer element count (buf only).
	Count int `json:"count,omitempty"`
	// Fill is the constant every element starts at; with Ramp, element i
	// starts at Fill + i (deterministic inputs make the response CRCs
	// comparable across runs and fault schedules).
	Fill float64 `json:"fill,omitempty"`
	Ramp bool    `json:"ramp,omitempty"`
	// Int / Float carry scalar argument values.
	Int   int64   `json:"int,omitempty"`
	Float float64 `json:"float,omitempty"`
}

// Response statuses.
const (
	// StatusOK: the job ran to completion (suite mode: output verified).
	StatusOK = "ok"
	// StatusRejected: the job never ran — admission queue full or server
	// draining.  RetryAfterMs hints when to resubmit.
	StatusRejected = "rejected"
	// StatusError: the job was admitted but failed (compile error, launch
	// error, deadline exceeded, ...).
	StatusError = "error"
)

// Response reports one job's outcome.
type Response struct {
	ID    uint64 `json:"id"`
	JobID uint64 `json:"job_id,omitempty"`
	// Status is StatusOK, StatusRejected, or StatusError.
	Status string `json:"status"`
	Err    string `json:"err,omitempty"`
	// RetryAfterMs accompanies StatusRejected: the backpressure hint,
	// derived from the observed service rate and queue depth.
	RetryAfterMs int `json:"retry_after_ms,omitempty"`
	// Queued accompanies StatusRejected: the admission queue depth at
	// rejection time, so clients see the backlog behind the hint.
	Queued int `json:"queued,omitempty"`

	// QueueMs / RunMs split the job's wall time.
	QueueMs float64 `json:"queue_ms,omitempty"`
	RunMs   float64 `json:"run_ms,omitempty"`
	// Stats is the launch's execution report (simulated phase times).
	Stats *core.Stats `json:"stats,omitempty"`
	// Counters is the job's isolated metrics registry at completion —
	// counters only; this job's launches and nothing else's.
	Counters map[string]int64 `json:"counters,omitempty"`
	// TraceEvents / TraceDropped report the job's capped trace capture.
	TraceEvents  int   `json:"trace_events,omitempty"`
	TraceDropped int64 `json:"trace_dropped,omitempty"`
	// BufCRCs are IEEE CRC32 checksums of node 0's buffer arguments in
	// argument order (source mode), for bitwise result comparison.
	BufCRCs []uint32 `json:"buf_crcs,omitempty"`
	// FaultsInjected totals the transport faults injected into this job's
	// cluster (0 without chaos config).
	FaultsInjected int64 `json:"faults_injected,omitempty"`
}

// WriteFrame writes one length-prefixed JSON frame.
func WriteFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if uint32(len(body)) > transport.MaxFrameBytes {
		return fmt.Errorf("serve: frame of %d bytes exceeds cap %d", len(body), transport.MaxFrameBytes)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// ReadFrame reads one length-prefixed JSON frame into v.
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > transport.MaxFrameBytes {
		return fmt.Errorf("serve: frame of %d bytes exceeds cap %d", n, transport.MaxFrameBytes)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}
