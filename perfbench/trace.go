package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (the program itself is not instrumented).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: no parent
	Name   string `json:"name"`
	Req    int64  `json:"req"` // request id; -1 when the span serves no request
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call, so the untraced run
// measures the program alone.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int, req int64) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes returns, per span name, the count, the summed duration and
// the summed self time: each span's duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	var order []string
	for _, s := range spans {
		lt, ok := byName[s.Name]
		if !ok {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			order = append(order, s.Name)
		}
		dur := s.End - s.Start
		lt.Count++
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(dur - covered(s, children[s.ID]))
	}
	out := make([]layerTime, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union
// of the children's intervals covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}

// spanCost measures what one begin/end pair costs on a private tracer:
// the per-span tracing overhead.
func spanCost() time.Duration {
	const n = 200000
	t := newTracer(true)
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("probe", 0, int64(i)))
	}
	return time.Since(start) / n
}
