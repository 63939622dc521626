package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans of the traced run in memory; write saves them
// when the run ends. A nil *tracer records nothing, so untraced code
// paths call it unconditionally.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	values map[string][]float64 // counts measured at layer boundaries
}

// span is one timed call at a layer boundary. Parent is the span that
// caused it (0 for none): a server span's parent is the client request
// that carried it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRef is an open span.
type spanRef struct {
	id, parent int64
	name       string
	start      time.Time
}

// spanHeader carries "op:span-id" from the client to the handler
// wrapper so the server span can name its parent.
const spanHeader = "X-Perfbench-Span"

func newTracer() *tracer { return &tracer{origin: time.Now(), values: map[string][]float64{}} }

// record notes a value measured at a layer boundary.
func (t *tracer) record(name string, v float64) {
	t.mu.Lock()
	t.values[name] = append(t.values[name], v)
	t.mu.Unlock()
}

// valuesOf returns the values recorded under name.
func (t *tracer) valuesOf(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.values[name]...)
}

func (t *tracer) begin(name string, parent int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{id: t.nextID.Add(1), parent: parent, name: name, start: time.Now()}
}

// end closes the span.
func (t *tracer) end(r spanRef) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: r.id, Parent: r.parent, Name: r.name,
		Start: int64(r.start.Sub(t.origin)), End: int64(now.Sub(t.origin)),
	})
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int64, fn func()) {
	sp := t.begin(name, parent)
	fn()
	t.end(sp)
}

// wrapHandler records a "server.<op>" span around the daemon's
// in-process ServeHTTP for every request that carries a client span.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, id, ok := strings.Cut(r.Header.Get(spanHeader), ":")
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(id, 10, 64)
		sp := t.begin("server."+op, parent)
		h.ServeHTTP(w, r)
		t.end(sp)
	})
}

// byName returns the durations of all spans with the given name.
func (t *tracer) byName(name string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out samples
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its child spans cover.
func (t *tracer) selfTimes() map[int64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(t.spans))
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfByName returns the self times of the spans with the given name.
func (t *tracer) selfByName(name string) samples {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	var out samples
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, self[s.ID])
		}
	}
	return out
}

// write saves the spans and a per-name summary (count, total and self
// time) as JSON under dir/traces.
func (t *tracer) write(dir, workload string, seed int64) error {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	type agg struct {
		Count   int     `json:"count"`
		TotalMs float64 `json:"total_ms"`
		SelfMs  float64 `json:"self_ms"`
	}
	summary := map[string]*agg{}
	for _, s := range t.spans {
		a := summary[s.Name]
		if a == nil {
			a = &agg{}
			summary[s.Name] = a
		}
		a.Count++
		a.TotalMs += ms(s.dur())
		a.SelfMs += ms(self[s.ID])
	}
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "summary": summary, "spans": t.spans})
	if err != nil {
		return err
	}
	out := filepath.Join(dir, "traces")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(out, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
