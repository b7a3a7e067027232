package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one client request share
// req; n > 1 marks a span timing a batch of n identical calls whose
// per-call cost is the span's duration over n.
type span struct {
	id, parent uint64
	req        uint64
	name       string
	start, end int64 // ns since the benchmark epoch
	n          int32
}

// tracer keeps spans in memory until the run ends. At most maxSpans are
// kept; later ones are counted as dropped.
type tracer struct {
	epoch   time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

const maxSpans = 1 << 21

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// timed records fn as a span named name under parent for request req; fn
// receives the span's id so the calls it makes can nest under it.
func (t *tracer) timed(name string, parent, req uint64, n int32, fn func(id uint64)) {
	id := t.newID()
	start := t.now()
	fn(id)
	t.add(span{id: id, parent: parent, req: req, name: name, start: start, end: t.now(), n: n})
}

// writeFile writes every span as one tab-separated line:
// id parent req name start_ns end_ns n.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns\tn")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.req, s.name, s.start, s.end, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanIndex answers questions about the recorded span tree.
type spanIndex struct {
	spans    []span
	children map[uint64][]int // parent id -> indexes into spans
}

func (t *tracer) index() *spanIndex {
	x := &spanIndex{spans: t.spans, children: make(map[uint64][]int)}
	for i, s := range t.spans {
		if s.parent != 0 {
			x.children[s.parent] = append(x.children[s.parent], i)
		}
	}
	return x
}

// covered returns how much of [lo, hi) the given intervals cover.
func covered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, v := range iv {
		s, e := max(v[0], cur), min(v[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// self is a span's duration minus the part of it its direct children cover.
func (x *spanIndex) self(s *span) int64 {
	var iv [][2]int64
	for _, c := range x.children[s.id] {
		iv = append(iv, [2]int64{x.spans[c].start, x.spans[c].end})
	}
	return s.end - s.start - covered(s.start, s.end, iv)
}

// selfExcept is a span's duration minus the part covered by its
// descendants whose name starts with prefix.
func (x *spanIndex) selfExcept(s *span, prefix string) int64 {
	var iv [][2]int64
	var walk func(id uint64)
	walk = func(id uint64) {
		for _, c := range x.children[id] {
			cs := &x.spans[c]
			if strings.HasPrefix(cs.name, prefix) {
				iv = append(iv, [2]int64{cs.start, cs.end})
				continue
			}
			walk(cs.id)
		}
	}
	walk(s.id)
	return s.end - s.start - covered(s.start, s.end, iv)
}

// rung summarises all spans of one name.
type rung struct {
	name    string
	spans   int
	calls   int64
	perCall float64 // total duration / calls, ns
	p50     float64 // median per-call duration, ns
	selfP50 float64 // median per-call self time, ns
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

// rungs returns one row per span name, in order of first recording.
func (x *spanIndex) rungs() []rung {
	type acc struct {
		r          rung
		durs, self []float64
		total      int64
	}
	by := map[string]*acc{}
	var order []string
	for i := range x.spans {
		s := &x.spans[i]
		a := by[s.name]
		if a == nil {
			a = &acc{r: rung{name: s.name}}
			by[s.name] = a
			order = append(order, s.name)
		}
		n := max(int64(s.n), 1)
		a.r.spans++
		a.r.calls += n
		a.total += s.end - s.start
		a.durs = append(a.durs, float64(s.end-s.start)/float64(n))
		a.self = append(a.self, float64(x.self(s))/float64(n))
	}
	out := make([]rung, 0, len(order))
	for _, name := range order {
		a := by[name]
		a.r.perCall = float64(a.total) / float64(a.r.calls)
		a.r.p50 = median(a.durs)
		a.r.selfP50 = median(a.self)
		out = append(out, a.r)
	}
	return out
}
