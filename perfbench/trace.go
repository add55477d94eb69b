package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function: its name
// ("<layer>.<call>"), its interval relative to the tracer's epoch, the
// span that caused it (0 for a root) and the operation (one campaign,
// one service job, one layer probe) all its spans share.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Op     string        `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so measurement code
// calls it unconditionally.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span and returns it for closing. The zero spanRef
// (from a nil tracer) closes as a no-op.
func (t *tracer) open(op, name string, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	start := time.Since(t.epoch)
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return spanRef{t: t, id: id, parent: parent.id, op: op, name: name, start: start}
}

// record adds an already measured interval as a span.
func (t *tracer) record(op, name string, parent spanRef, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent.id, Op: op, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	t.mu.Unlock()
}

type spanRef struct {
	t      *tracer
	id     int64
	parent int64
	op     string
	name   string
	start  time.Duration
}

func (s spanRef) close() {
	if s.t == nil {
		return
	}
	end := time.Since(s.t.epoch)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{ID: s.id, Parent: s.parent, Op: s.op, Name: s.name, Start: s.start, End: end})
	s.t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON line.
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

// layerOf maps a span name "<layer>.<call>" to its layer.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the part of
// its interval that its children cover. Children may overlap each
// other (parallel calls) or stick out of the parent (a callback
// outliving the call); only the covered part inside the parent counts
// once.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		d := s.End - s.Start - covered(s, children[s.ID])
		self[layerOf(s.Name)] += d
	}
	return self
}

// covered measures the union of the children's intervals clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// spanFile names the span dump of one run.
func spanFile(dir, workload string, seed uint64) string {
	return fmt.Sprintf("%s/spans-%s-%d.jsonl", dir, workload, seed)
}
