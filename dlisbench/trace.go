package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
// The layer is the name up to its first dot.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID returns a fresh identifier for a span or a request.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span and returns its ID.
func (t *tracer) record(name string, parent, req uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	return t.recordID(t.newID(), name, parent, req, start, end)
}

// recordID stores a finished span under an ID taken earlier, so that
// children can name a parent that is still open.
func (t *tracer) recordID(id uint64, name string, parent, req uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent uint64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(name, parent, 0, start, end)
	return end.Sub(start)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}
