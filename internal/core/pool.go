package core

import (
	"iter"
	"sync"
	"time"

	"wtftm/internal/mvstm"
)

// This file holds the engine's per-future plumbing, mirroring the
// substrate's internal/mvstm/pool.go. Three mechanisms keep a submitted
// future cheap without changing what it means:
//
//   - Warm runners. A future body runs on a runner goroutine owned by the
//     System: Submit hands the future to an idle runner, or starts a new one
//     when none is idle. A runner that already grew its stack for a body
//     runs the next one without growing it again, and no goroutine is
//     created or torn down per future. Spawning is never bounded (a body
//     may block on a sibling that has not started yet, so a capped pool
//     could deadlock); idle runners beyond runnerMaxIdle, or idle for longer
//     than runnerIdleTimeout, exit, so an idle System holds no goroutines.
//   - Compact vertices. Most sub-transactions touch one or two boxes, so
//     vertex read/write sets keep their first isetInline entries inline (no
//     map at all for the common case) and spill to a map beyond that.
//   - Vertex slabs. Vertices are carved out of per-topTx slabs instead of
//     being allocated one by one. There is deliberately no
//     cross-transaction recycling (no sync.Pool): GAC-escaped futures keep
//     their spawning transaction's vertices reachable after commit, so
//     reusing a vertex's memory for a later transaction could resurrect a
//     detach record's sources. Slabs only amortize allocation; they never
//     reuse.

// runnerMaxIdle bounds the runners a System keeps parked; runnerIdleTimeout
// is how long a parked runner waits for work before it exits.
const (
	runnerMaxIdle     = 64
	runnerIdleTimeout = 250 * time.Millisecond
)

// runnerPool is the System's set of idle runner goroutines (LIFO, so the
// most recently used — warmest — runner is reused first).
type runnerPool struct {
	mu   sync.Mutex
	idle []*runner
}

// runner is one runner goroutine's mailbox. work has room for one future,
// so handing work to a popped runner never blocks.
type runner struct {
	work  chan *Future
	timer *time.Timer
}

// start runs f's body on an idle runner, or on a new one.
func (s *System) start(f *Future) {
	p := &s.runners
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		r := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		r.work <- f
		return
	}
	p.mu.Unlock()
	s.stats.RunnerSpawns.Add(1)
	go s.runLoop(f)
}

// runLoop is a runner goroutine: run f, then park for the next future until
// the pool is full or the idle timeout passes.
func (s *System) runLoop(f *Future) {
	r := &runner{work: make(chan *Future, 1)}
	p := &s.runners
	for {
		f.run()
		f = nil // do not pin the finished transaction's graph while parked
		p.mu.Lock()
		if len(p.idle) >= runnerMaxIdle {
			p.mu.Unlock()
			return
		}
		p.idle = append(p.idle, r)
		p.mu.Unlock()
		if r.timer == nil {
			r.timer = time.NewTimer(runnerIdleTimeout)
		} else {
			r.timer.Reset(runnerIdleTimeout)
		}
		select {
		case f = <-r.work:
			continue
		case <-r.timer.C:
		}
		p.mu.Lock()
		for i, x := range p.idle {
			if x == r {
				n := len(p.idle) - 1
				copy(p.idle[i:], p.idle[i+1:])
				p.idle[n] = nil
				p.idle = p.idle[:n]
				p.mu.Unlock()
				return
			}
		}
		p.mu.Unlock()
		// A submitter popped this runner while the timer fired: its future
		// is on the way.
		f = <-r.work
	}
}

// isetInline is the inline capacity of an iset. A served MULTI's future
// touches one or two boxes per vertex; larger sets spill to an ordinary map.
const isetInline = 2

// iset is a small-footprint box-keyed set: up to isetInline entries are
// stored inline in the struct, past that it spills to a heap map. The zero
// value is an empty set. Not safe for concurrent use; callers synchronize
// exactly as they did for the maps it replaces (vertex.vmu).
type iset[V any] struct {
	n    int
	keys [isetInline]*mvstm.VBox
	vals [isetInline]V
	m    map[*mvstm.VBox]V
}

// size returns the number of entries.
func (s *iset[V]) size() int {
	if s.m != nil {
		return len(s.m)
	}
	return s.n
}

// get returns the value stored for b.
func (s *iset[V]) get(b *mvstm.VBox) (V, bool) {
	if s.m != nil {
		v, ok := s.m[b]
		return v, ok
	}
	for i := 0; i < s.n; i++ {
		if s.keys[i] == b {
			return s.vals[i], true
		}
	}
	var zero V
	return zero, false
}

// put inserts or overwrites the entry for b.
func (s *iset[V]) put(b *mvstm.VBox, v V) {
	if s.m != nil {
		s.m[b] = v
		return
	}
	for i := 0; i < s.n; i++ {
		if s.keys[i] == b {
			s.vals[i] = v
			return
		}
	}
	if s.n < isetInline {
		s.keys[s.n], s.vals[s.n] = b, v
		s.n++
		return
	}
	s.m = make(map[*mvstm.VBox]V, 4*isetInline)
	for i := 0; i < s.n; i++ {
		s.m[s.keys[i]] = s.vals[i]
		s.keys[i] = nil
	}
	s.n = 0
	s.m[b] = v
}

// del removes the entry for b, if present.
func (s *iset[V]) del(b *mvstm.VBox) {
	if s.m != nil {
		delete(s.m, b)
		return
	}
	for i := 0; i < s.n; i++ {
		if s.keys[i] == b {
			s.n--
			s.keys[i], s.vals[i] = s.keys[s.n], s.vals[s.n]
			s.keys[s.n] = nil
			var zero V
			s.vals[s.n] = zero
			return
		}
	}
}

// all iterates the entries in unspecified order, like a map range.
func (s *iset[V]) all() iter.Seq2[*mvstm.VBox, V] {
	return func(yield func(*mvstm.VBox, V) bool) {
		if s.m != nil {
			for b, v := range s.m {
				if !yield(b, v) {
					return
				}
			}
			return
		}
		for i := 0; i < s.n; i++ {
			if !yield(s.keys[i], s.vals[i]) {
				return
			}
		}
	}
}

// vertexSlabMax caps the per-slab vertex count. Slabs grow geometrically
// from a single vertex: a transaction with no futures (the dominant shape on
// a key-value serving path) touches only its root vertex, so charging it a
// full slab would make slab zeroing and GC scanning the dominant cost of
// Atomic. Fan-out-heavy transactions reach the cap within three slabs.
const vertexSlabMax = 32

// allocVertex hands out the next vertex from the transaction's slab. The
// slab's zeroed memory is the vertex's initial state (empty inline sets,
// zero summaries); callers set identity fields. Caller holds top.mu (or is
// pre-concurrency).
func (t *topTx) allocVertex() *vertex {
	if len(t.vslab) == 0 {
		n := t.vslabGrow
		if n == 0 {
			n = 1
		} else if n > vertexSlabMax {
			n = vertexSlabMax
		}
		t.vslabGrow = n * 4
		t.vslab = make([]vertex, n)
	}
	v := &t.vslab[0]
	t.vslab = t.vslab[1:]
	return v
}
