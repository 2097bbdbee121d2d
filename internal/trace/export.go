package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// jsonlRecord is the line shape of the JSONL export. Field order is
// fixed by the struct; the fields map is sorted by encoding/json — the
// whole line is byte-deterministic.
type jsonlRecord struct {
	Type   string            `json:"type"`
	ID     ID                `json:"id"`
	Parent ID                `json:"parent,omitempty"`
	Span   ID                `json:"span,omitempty"`
	T      float64           `json:"t"`
	End    float64           `json:"end,omitempty"`
	Open   bool              `json:"open,omitempty"`
	Kind   string            `json:"kind"`
	Name   string            `json:"name,omitempty"`
	Fields map[string]string `json:"fields,omitempty"`
}

func fieldMap(fields []Field) map[string]string {
	if len(fields) == 0 {
		return nil
	}
	m := make(map[string]string, len(fields))
	for _, f := range fields {
		m[f.Key] = f.Value()
	}
	return m
}

// WriteJSONL writes every retained event (ring order, oldest first)
// followed by every retained span (creation order), one JSON object per
// line. Same seed, same config ⇒ byte-identical output.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range t.Events() {
		rec := jsonlRecord{Type: "event", ID: ev.ID, Span: ev.Span, T: ev.T, Kind: ev.Kind, Name: ev.Name, Fields: fieldMap(ev.Fields)}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	for _, s := range t.Spans() {
		rec := jsonlRecord{Type: "span", ID: s.ID, Parent: s.Parent, T: s.Start, End: s.End, Open: s.Open, Kind: s.Kind, Name: s.Name, Fields: fieldMap(s.Fields)}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// laneOf groups kinds into Chrome trace "threads": the segment before
// the first dot ("membership.join" → "membership").
func laneOf(kind string) string {
	if i := strings.IndexByte(kind, '.'); i >= 0 {
		return kind[:i]
	}
	return kind
}

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// Perfetto and chrome://tracing load). Timestamps are virtual-time
// microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	ID   string            `json:"id,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

const virtualPID = 1

// WriteChromeTrace writes the retained record in Chrome trace-event
// format: spans as complete ("X") slices, events as instants ("i"),
// with one virtual thread per kind family and thread-name metadata.
// Times are virtual microseconds, so a 3000 s run renders as 3000 ms of
// wall-clock-free timeline.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	spans := t.Spans()

	// Assign lanes (tids) in first-appearance order so the layout is
	// deterministic per seed.
	tids := make(map[string]int)
	laneNames := []string{}
	tid := func(kind string) int {
		lane := laneOf(kind)
		if id, ok := tids[lane]; ok {
			return id
		}
		id := len(tids) + 1
		tids[lane] = id
		laneNames = append(laneNames, lane)
		return id
	}

	var out []chromeEvent
	for _, s := range spans {
		dur := (s.End - s.Start) * 1e6
		if dur < 0 {
			dur = 0
		}
		args := fieldMap(s.Fields)
		if s.Parent != 0 {
			if args == nil {
				args = make(map[string]string, 1)
			}
			args["parent"] = fmt.Sprintf("%d", s.Parent)
		}
		d := dur
		out = append(out, chromeEvent{
			Name: s.Kind + " " + s.Name, Cat: s.Kind, Ph: "X",
			TS: s.Start * 1e6, Dur: &d, PID: virtualPID, TID: tid(s.Kind),
			ID: fmt.Sprintf("%d", s.ID), Args: args,
		})
	}
	for _, ev := range events {
		name := ev.Kind
		if ev.Name != "" {
			name += " " + ev.Name
		}
		out = append(out, chromeEvent{
			Name: name, Cat: ev.Kind, Ph: "i",
			TS: ev.T * 1e6, PID: virtualPID, TID: tid(ev.Kind),
			S: "t", Args: fieldMap(ev.Fields),
		})
	}
	// Thread-name metadata so Perfetto labels the lanes.
	meta := make([]chromeEvent, 0, len(laneNames)+2)
	meta = append(meta, chromeEvent{
		Name: "process_name", Ph: "M", PID: virtualPID, TID: 0,
		Args: map[string]string{"name": "jade (virtual time)"},
	})
	// Retention counters, so a validator reading only the file can tell
	// whether the record is complete or the stores overflowed.
	st := t.Stat()
	meta = append(meta, chromeEvent{
		Name: "jade_trace_stats", Ph: "M", PID: virtualPID, TID: 0,
		Args: map[string]string{
			"events":         fmt.Sprintf("%d", st.Events),
			"spans":          fmt.Sprintf("%d", st.Spans),
			"evicted_events": fmt.Sprintf("%d", st.EventsEvicted),
			"dropped_spans":  fmt.Sprintf("%d", st.SpansDropped),
		},
	})
	for _, lane := range laneNames {
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", PID: virtualPID, TID: tids[lane],
			Args: map[string]string{"name": lane},
		})
	}
	out = append(meta, out...)

	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range out {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(out)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(b, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "],\"displayTimeUnit\":\"ms\"}\n")
	return err
}

// ValidateChromeTrace parses data as Chrome trace-event JSON and checks
// the fields Perfetto needs: a traceEvents array whose entries carry a
// name, a known phase, non-negative timestamps and durations, and
// pid/tid. It returns the number of trace events, or an error
// describing the first malformed entry.
func ValidateChromeTrace(data []byte) (int, error) {
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return 0, fmt.Errorf("trace: missing traceEvents array")
	}
	validPh := map[string]bool{"X": true, "i": true, "I": true, "M": true, "B": true, "E": true, "C": true}
	for i, raw := range doc.TraceEvents {
		var ev struct {
			Name *string  `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			PID  *int     `json:"pid"`
			TID  *int     `json:"tid"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			return 0, fmt.Errorf("trace: traceEvents[%d]: %w", i, err)
		}
		if ev.Name == nil || *ev.Name == "" {
			return 0, fmt.Errorf("trace: traceEvents[%d]: missing name", i)
		}
		if !validPh[ev.Ph] {
			return 0, fmt.Errorf("trace: traceEvents[%d]: unknown phase %q", i, ev.Ph)
		}
		if ev.Ph != "M" {
			if ev.TS == nil || *ev.TS < 0 {
				return 0, fmt.Errorf("trace: traceEvents[%d]: missing or negative ts", i)
			}
		}
		if ev.Dur != nil && *ev.Dur < 0 {
			return 0, fmt.Errorf("trace: traceEvents[%d]: negative dur", i)
		}
		if ev.PID == nil || ev.TID == nil {
			return 0, fmt.Errorf("trace: traceEvents[%d]: missing pid/tid", i)
		}
	}
	return len(doc.TraceEvents), nil
}

// ChromeTraceStats reads the "jade_trace_stats" metadata event
// WriteChromeTrace embeds. ok is false when the file carries no such
// record (an older export, or a foreign trace).
func ChromeTraceStats(data []byte) (droppedSpans, evictedEvents uint64, ok bool) {
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, 0, false
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" || ev.Name != "jade_trace_stats" {
			continue
		}
		fmt.Sscanf(ev.Args["dropped_spans"], "%d", &droppedSpans)
		fmt.Sscanf(ev.Args["evicted_events"], "%d", &evictedEvents)
		return droppedSpans, evictedEvents, true
	}
	return 0, 0, false
}
