package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a module, recorded by the benchmark around
// the call. Spans of one operation share Op; Parent is -1 for an
// operation's root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Alloc  uint64        `json:"alloc_bytes"`

	allocAtStart uint64
}

// module is the part of a span name before the first dot: the package the
// call went into.
func (s span) module() string {
	m, _, _ := strings.Cut(s.Name, ".")
	return m
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the replay code serves traced and untraced callers.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// totalAlloc is the heap allocated so far, from runtime.MemStats. Reading
// it stops the world briefly, which is part of the tracing overhead the
// traced run reports.
func totalAlloc() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}

// begin opens a span and returns its id.
func (r *recorder) begin(op, parent int, name string) int {
	if r == nil {
		return -1
	}
	alloc := totalAlloc()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: time.Since(r.t0), allocAtStart: alloc})
	return id
}

// end closes span id, recording its end time and allocation delta.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	alloc := totalAlloc()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End = now
	s.Alloc = alloc - s.allocAtStart
}

// do records f as a span named name under parent.
func (r *recorder) do(op, parent int, name string, f func()) {
	id := r.begin(op, parent, name)
	f()
	r.end(id)
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped
// to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	cur := iv{-1, -1}
	for _, x := range ivs {
		if x.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = x
			continue
		}
		cur.hi = max(cur.hi, x.hi)
	}
	return total + cur.hi - cur.lo
}

// moduleSelf sums self time per module over the spans of the given ops
// (all ops when ops is nil).
func moduleSelf(spans []span, ops map[int]bool) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if ops == nil || ops[s.Op] {
			out[s.module()] += self[i]
		}
	}
	return out
}

// writeSpans writes the run's spans and per-module self times as JSON
// under dir and returns the file's path.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	self := make(map[string]float64)
	for m, d := range moduleSelf(spans, nil) {
		self[m] = ms(d)
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfMS   map[string]float64 `json:"module_self_ms"`
		Spans    []span             `json:"spans"`
		Note     string             `json:"note"`
	}{workload, seed, self, spans, "times are ns since the traced run began; self time excludes child spans; cachesim's includes the trace generation it pulls, which trace.drain measures again"}
	data, err := json.Marshal(&doc)
	if err != nil {
		return "", fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
