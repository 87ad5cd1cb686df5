package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share op; parent is the id of the enclosing span (0 at the
// root).
type span struct {
	name       string
	id, parent int
	op         int
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	ops   int
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, t0: time.Now()}
	if on {
		t.spans = make([]span, 0, 1<<14)
	}
	return t
}

// newOp returns a fresh operation id.
func (t *tracer) newOp() int {
	t.ops++
	return t.ops
}

// reserve grows the span buffer so the next n spans do not allocate,
// keeping allocation counts taken around traced calls exact.
func (t *tracer) reserve(n int) {
	if !t.on || cap(t.spans)-len(t.spans) >= n {
		return
	}
	grown := make([]span, len(t.spans), len(t.spans)+n)
	copy(grown, t.spans)
	t.spans = grown
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{name: name, id: len(t.spans) + 1, parent: parent, op: op, start: time.Since(t.t0)})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].end = time.Since(t.t0)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes every span as Chrome trace-event JSON. All calls
// come from one goroutine, so one track nests them by time.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		ev := chromeEvent{
			Name: s.name, Cat: layerOfSpan(s.name), Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"span": s.id, "parent": s.parent, "op": s.op},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOfSpan is the span's layer: its name up to the first dot.
func layerOfSpan(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}
