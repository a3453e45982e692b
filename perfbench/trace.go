package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one op share Op; Parent is the enclosing span (0 = the op's
// root). Start and End are nanoseconds since the tracer's epoch.
type span struct {
	ID, Parent int64
	Op         int
	Name       string
	TID        int
	Start, End int64
}

// layerAgg accumulates every span of one name.
type layerAgg struct {
	calls       int
	total, self time.Duration
	// allocBytes sums heap allocation across calls whose allocation was
	// read around the call (client-goroutine calls only); allocCalls
	// counts those calls.
	allocBytes uint64
	allocCalls int
}

// keptSpanCap bounds the spans held for the Chrome trace file; beyond it
// spans still feed the aggregates but are not written out.
const keptSpanCap = 300000

// tracer keeps spans in memory, folds them into per-name aggregates
// (including self time) when flushed, and writes the kept ones as a
// Chrome trace-event file at the end of the run. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	pending []span
	kept    []span
	dropped int
	agg     map[string]*layerAgg
	allocs  map[string][2]uint64 // name -> pending alloc bytes, calls
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		agg:    map[string]*layerAgg{},
		allocs: map[string][2]uint64{},
	}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// newID reserves a span ID, so a span's children can name it as parent
// before it ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores one finished span.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pending = append(t.pending, s)
	t.mu.Unlock()
}

// call runs fn as one span named name under parent on the client
// goroutine (tid 1), reading the process's heap allocation around it.
// fn receives the span's ID for its own children.
func (t *tracer) call(name string, op int, parent int64, fn func(id int64)) {
	if t == nil {
		fn(0)
		return
	}
	id := t.newID()
	a0 := readHeap().bytes
	start := t.now()
	fn(id)
	end := t.now()
	a1 := readHeap().bytes
	t.mu.Lock()
	t.pending = append(t.pending, span{ID: id, Parent: parent, Op: op, Name: name, TID: 1, Start: start, End: end})
	pa := t.allocs[name]
	t.allocs[name] = [2]uint64{pa[0] + a1 - a0, pa[1] + 1}
	t.mu.Unlock()
}

// flush folds the pending spans into the aggregates. Call it only when no
// span of the pending set is still open (between closed-loop ops), so
// every child is flushed with its parent.
func (t *tracer) flush() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.pending)
	for i, s := range t.pending {
		a := t.agg[s.Name]
		if a == nil {
			a = &layerAgg{}
			t.agg[s.Name] = a
		}
		a.calls++
		a.total += time.Duration(s.End - s.Start)
		a.self += self[i]
	}
	for name, pa := range t.allocs {
		a := t.agg[name]
		a.allocBytes += pa[0]
		a.allocCalls += int(pa[1])
	}
	clear(t.allocs)
	room := keptSpanCap - len(t.kept)
	if room >= len(t.pending) {
		t.kept = append(t.kept, t.pending...)
	} else {
		if room > 0 {
			t.kept = append(t.kept, t.pending[:room]...)
		}
		t.dropped += len(t.pending) - max(room, 0)
	}
	t.pending = t.pending[:0]
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by its children. Children may overlap one another
// (concurrent sends under one runtime call) or outlive the parent; only
// the union of child intervals, clipped to the parent, is subtracted.
func selfTimes(spans []span) []time.Duration {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = time.Duration(s.End - s.Start - covered(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// stat returns the aggregate for a span name (zero when never called).
func (t *tracer) stat(name string) layerAgg {
	if t == nil {
		return layerAgg{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[name]; a != nil {
		return *a
	}
	return layerAgg{}
}

// meanUS is the mean duration of a span name in microseconds.
func (a layerAgg) meanUS() float64 {
	return ratio(float64(a.total)/1e3, float64(a.calls))
}

// allocKBPerCall is the mean heap allocation per measured call in KiB.
func (a layerAgg) allocKBPerCall() float64 {
	return ratio(float64(a.allocBytes)/1024, float64(a.allocCalls))
}

// layerAlloc merges the allocation of every client-side span whose name
// starts with layer + ".".
func (t *tracer) layerAlloc(layer string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum layerAgg
	for name, a := range t.agg {
		if strings.HasPrefix(name, layer+".") {
			sum.allocBytes += a.allocBytes
			sum.allocCalls += a.allocCalls
		}
	}
	return sum.allocKBPerCall()
}

// selfTable lists every span name with calls, mean and mean self time.
func (t *tracer) selfTable() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.agg))
	for n := range t.agg {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %12s %12s\n", "span", "calls", "mean_us", "self_us")
	for _, n := range names {
		a := t.agg[n]
		fmt.Fprintf(&b, "%-24s %10d %12.2f %12.2f\n", n, a.calls, a.meanUS(),
			ratio(float64(a.self)/1e3, float64(a.calls)))
	}
	return b.String()
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the kept spans as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	t.mu.Lock()
	kept, dropped := t.kept, t.dropped
	t.mu.Unlock()
	fmt.Fprintf(w, "{\"otherData\":{\"dropped_spans\":%d},\"traceEvents\":[\n", dropped)
	enc := json.NewEncoder(w)
	for i, s := range kept {
		if i > 0 {
			w.WriteString(",")
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		if err := enc.Encode(chromeEvent{
			Name: s.Name, Cat: layer, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.TID,
			Args: map[string]any{"op": s.Op, "id": s.ID, "parent": s.Parent},
		}); err != nil {
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
