package core

import (
	"sync"

	"wtftm/internal/history"
	"wtftm/internal/mvstm"
)

// vstatus is the lifecycle state of a sub-transaction vertex in G.
type vstatus int

const (
	// vActive: the owning flow is still executing inside this vertex.
	vActive vstatus = iota
	// vCompleted: a future body finished but could not serialize at
	// submission; its updates stay invisible until evaluation ("completed
	// but not iCommitted" in §4.1).
	vCompleted
	// vICommitted: the vertex's updates are visible to the sub-transactions
	// serialized after it within the same top-level transaction.
	vICommitted
	// vRemoved: the vertex was merged away when its future serialized; its
	// effects now live in the vertex named by into.
	vRemoved
	// vDiscarded: the vertex was dropped without folding its writes (its
	// future aborted or re-executes, or a segment rolled back).
	vDiscarded
)

// readObs describes the source a read observed. Exactly one of ver (a
// committed version, read from the top-level snapshot) or {flow, wid} (an
// uncommitted write of a sub-transaction) identifies the origin.
type readObs struct {
	val  any
	ver  *mvstm.Version // non-nil: observed a committed version
	flow int            // origin flow of the observed sub-transaction write
	wid  int64          // unique id of the observed sub-transaction write
}

// writeEntry is one buffered write held by a vertex. Merges preserve the
// origin flow and write id so GAC detach records can resolve what a
// detached future actually observed.
type writeEntry struct {
	val  any
	wid  int64
	flow int
}

// vertex is a node of the per-top-level-transaction graph G: one
// sub-transaction, delimited by submit/evaluate boundaries.
type vertex struct {
	id   int
	flow int // logical thread of control (0 = main flow, one per future)

	// Topology, guarded by top.mu. pred is the unique predecessor (the
	// construction never creates backward bifurcations — see footnote 1 of
	// the paper); next is the same-flow successor, linking a future's chain.
	pred   *vertex
	next   *vertex
	succs  []*vertex
	status vstatus
	// succBuf backs succs for its first two entries (a spawner's future and
	// continuation), so linking a vertex allocates nothing.
	succBuf [2]*vertex

	// Data sets, guarded by vmu (they are read by validators while the
	// owning flow appends). readSum/writeSum are Bloom summaries of the box
	// fingerprints in the corresponding set: bits are only ever added (the
	// read fast path's retraction leaves its bit set — a false positive at
	// worst), so a zero AND against a query summary proves the set disjoint
	// and lets validators skip the set scan.
	vmu      sync.Mutex
	reads    iset[readObs]
	writes   iset[writeEntry]
	readSum  uint64
	writeSum uint64

	// segment is the AtomicSegments segment this vertex belongs to
	// (inherited from pred; re-stamped at segment boundaries).
	segment int

	// fut is non-nil on the first vertex of a future body.
	fut *Future

	// into is the vertex a removed (merged) vertex folded into. Guarded by
	// top.mu.
	into *vertex
}

// removed reports whether v left G, by a merge or a discard.
func (v *vertex) removed() bool { return v.status >= vRemoved }

// discarded reports whether v's effects were dropped: v, or the vertex its
// merges folded it into (transitively), was discarded. Caller holds top.mu.
func (v *vertex) discarded() bool {
	for v.status == vRemoved {
		v = v.into
	}
	return v.status == vDiscarded
}

// newVertex allocates a vertex in flow, linked after pred. Vertices come
// from the transaction's slab (see pool.go); their data sets start inline
// and allocate nothing until they spill. Caller holds top.mu.
func (t *topTx) newVertex(flow int, pred *vertex) *vertex {
	t.nextVID++
	v := t.allocVertex()
	v.id = t.nextVID
	v.flow = flow
	v.pred = pred
	v.status = vActive
	if pred != nil {
		v.segment = pred.segment
		pred.addSucc(v)
		if pred.flow == flow {
			pred.next = v
		}
	}
	return v
}

// addSucc appends c to v's successors. Caller holds top.mu.
func (v *vertex) addSucc(c *vertex) {
	if v.succs == nil {
		v.succs = v.succBuf[:0]
	}
	v.succs = append(v.succs, c)
}

// inChain reports whether v is on the same-flow chain rooted at head. Chains
// are a vertex or two, so a walk beats building a lookup set. Caller holds
// top.mu.
func inChain(head, v *vertex) bool {
	for c := head; c != nil; c = c.next {
		if c == v {
			return true
		}
	}
	return false
}

// chainWriteBoxes collects the boxes written along the chain rooted at v
// into out, with the set's Bloom summary. Caller holds top.mu.
func chainWriteBoxes(v *vertex, out *iset[struct{}]) (sum uint64) {
	for c := v; c != nil; c = c.next {
		c.vmu.Lock()
		for b := range c.writes.all() {
			out.put(b, struct{}{})
			sum |= b.Summary()
		}
		c.vmu.Unlock()
	}
	return sum
}

// chainReadBoxes collects the boxes read along the chain rooted at v into
// out, excluding reads that observed a write originating in flow self (a
// future re-reading its own chain's writes never conflicts with reordering
// the whole chain), with the set's Bloom summary. Caller holds top.mu.
func chainReadBoxes(v *vertex, self int, out *iset[struct{}]) (sum uint64) {
	for c := v; c != nil; c = c.next {
		c.vmu.Lock()
		for b, obs := range c.reads.all() {
			if obs.ver == nil && obs.flow == self {
				continue
			}
			out.put(b, struct{}{})
			sum |= b.Summary()
		}
		c.vmu.Unlock()
	}
	return sum
}

// forwardConflicts reports whether any vertex forward-reachable from start
// (inclusive) read one of the boxes in writes. skip, when non-nil, prunes
// the subtree rooted at it (the validated future's own chain, whose
// self-reads never conflict with relocating the whole chain). This is the
// paper's forward validation: serializing a future at its submission point
// is safe only if no sub-transaction ordered after its continuation observed
// state the future is about to overwrite. G is a tree (every vertex has one
// pred and sits in that pred's succs alone; re-rooting moves it), so the walk
// reaches each vertex once and needs no visited set. Caller holds top.mu.
func forwardConflicts(start *vertex, writes *iset[struct{}], wsum uint64, skip *vertex) bool {
	if writes.size() == 0 {
		return false
	}
	var buf [16]*vertex
	stack := append(buf[:0], start)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v.removed() || v == skip {
			continue
		}
		v.vmu.Lock()
		hit := false
		// Disjoint summaries prove the vertex read none of the boxes; only
		// scan on a (possibly false-positive) overlap.
		if v.readSum&wsum != 0 {
			for b := range v.reads.all() {
				if _, ok := writes.get(b); ok {
					hit = true
					break
				}
			}
		}
		v.vmu.Unlock()
		if hit {
			return true
		}
		stack = append(stack, v.succs...)
	}
	return false
}

// backwardConflicts walks the unique predecessor path from `from` back to
// (but excluding) the spawner vertex `until`, and reports whether any vertex
// on it wrote a box in reads. This is the paper's backward validation: those
// sub-transactions executed concurrently with the future and their writes
// were invisible to it, so the future may only be reordered after them if it
// read none of what they wrote. The second result is false if `until` is not
// an ancestor of `from` (a structurally invalid evaluation; the caller must
// re-execute). Caller holds top.mu.
func backwardConflicts(from, until *vertex, reads *iset[struct{}], rsum uint64) (conflict, ok bool) {
	for v := from; v != nil; v = v.pred {
		if v == until {
			return false, true
		}
		v.vmu.Lock()
		hit := false
		if v.writeSum&rsum != 0 {
			for b := range v.writes.all() {
				if _, in := reads.get(b); in {
					hit = true
					break
				}
			}
		}
		v.vmu.Unlock()
		if hit {
			return true, true
		}
	}
	return false, false
}

// pathWriteBoxes returns the union of boxes written by the vertices on the
// predecessor path from `from` (inclusive) back to `until` (exclusive).
// Caller holds top.mu.
func pathWriteBoxes(from, until *vertex) map[*mvstm.VBox]struct{} {
	out := make(map[*mvstm.VBox]struct{})
	for v := from; v != nil && v != until; v = v.pred {
		v.vmu.Lock()
		for b := range v.writes.all() {
			out[b] = struct{}{}
		}
		v.vmu.Unlock()
	}
	return out
}

// mergeChain serializes the (completed) chain rooted at head into target:
// the chain's writes fold into target's write set in chain order, its reads
// fold into target's read set (preserving them for later validations) and
// into the top-level validation set, its vertices are removed (forwarding to
// target through into), and any non-chain children (futures the chain
// spawned that are still pending) are re-rooted onto target. evalFrom is nil
// when serializing at the submission point, or the evaluating vertex when
// serializing at an evaluation point. Caller holds top.mu.
func (t *topTx) mergeChain(head, target *vertex, evalFrom *vertex) {
	if hasPendingChildren(head) {
		t.rerootChildren(head, target, evalFrom)
	}
	for c := head; c != nil; c = c.next {
		c.vmu.Lock()
		target.vmu.Lock()
		for b, we := range c.writes.all() {
			target.writes.put(b, we)
		}
		for b, obs := range c.reads.all() {
			if _, ok := target.reads.get(b); !ok {
				target.reads.put(b, obs)
			}
			if obs.ver != nil {
				if t.aggReads == nil {
					t.aggReads = make(map[*mvstm.VBox]struct{})
				}
				t.aggReads[b] = struct{}{}
			}
		}
		// The folded sets are supersets of nothing beyond the union, so the
		// vertex summaries OR in directly.
		target.readSum |= c.readSum
		target.writeSum |= c.writeSum
		target.vmu.Unlock()
		c.vmu.Unlock()
		c.status = vRemoved
		c.into = target
		c.succs = nil
	}
	unlinkFromPred(head)
	t.pushMergePatch(head, target, evalFrom)
}

// hasPendingChildren reports whether a vertex of the chain rooted at head
// spawned a future that is still in G. Caller holds top.mu.
func hasPendingChildren(head *vertex) bool {
	for c := head; c != nil; c = c.next {
		for _, child := range c.succs {
			if !child.removed() && !inChain(head, child) {
				return true
			}
		}
	}
	return false
}

// rerootChildren moves the pending children of the chain rooted at head onto
// target, ahead of a merge. Re-rooting relocates a pending child future in G:
// the writes that are logically ordered between the child's observation
// point and its new position — the chain's own writes after the child's
// spawn, plus (when merging at an evaluation point) the writes on the path
// from the spawner to the evaluation point — are accumulated into the
// child's extraPathWrites, which both of the child's validations consult.
// Caller holds top.mu.
func (t *topTx) rerootChildren(head, target, evalFrom *vertex) {
	var cs []*vertex
	for c := head; c != nil; c = c.next {
		cs = append(cs, c)
	}
	// Writes between the chain's old position and its new one (only when
	// relocating forward to an evaluation point).
	var relocW map[*mvstm.VBox]struct{}
	if evalFrom != nil {
		relocW = pathWriteBoxes(evalFrom, head.pred)
	}
	// Single reverse pass: when visiting cs[i], acc holds exactly the boxes
	// written by cs[i+1:] — the chain suffix after the vertex that spawned a
	// given child. Children are re-rooted and handed their extras here,
	// before cs[i]'s own writes fold into the accumulator (addExtraPathWrites
	// copies, so sharing the one mutable accumulator is safe).
	acc := make(map[*mvstm.VBox]struct{})
	for i := len(cs) - 1; i >= 0; i-- {
		c := cs[i]
		for _, child := range c.succs {
			if child.removed() || inChain(head, child) {
				continue
			}
			child.pred = target
			target.addSucc(child)
			if f := child.fut; f != nil {
				f.addExtraPathWrites(acc)
				f.addExtraPathWrites(relocW)
				if inChain(head, f.cont) {
					f.cont = target
				}
			}
		}
		c.vmu.Lock()
		for b := range c.writes.all() {
			acc[b] = struct{}{}
		}
		c.vmu.Unlock()
	}
}

// unlinkFromPred removes head from its predecessor's successor list.
// Caller holds top.mu.
func unlinkFromPred(head *vertex) {
	if p := head.pred; p != nil {
		for i, s := range p.succs {
			if s == head {
				p.succs = append(p.succs[:i], p.succs[i+1:]...)
				break
			}
		}
	}
}

// chainWrote reports whether a vertex of the chain rooted at head wrote b.
// Caller holds top.mu.
func chainWrote(head *vertex, b *mvstm.VBox) bool {
	for c := head; c != nil; c = c.next {
		c.vmu.Lock()
		_, ok := c.writes.get(b)
		c.vmu.Unlock()
		if ok {
			return true
		}
	}
	return false
}

// chainPatch returns the write set of the merged chain rooted at head, in
// chain order (later writes win — the precedence the fold applied). Caller
// holds top.mu.
func chainPatch(head *vertex) map[*mvstm.VBox]writeEntry {
	patch := make(map[*mvstm.VBox]writeEntry)
	for c := head; c != nil; c = c.next {
		c.vmu.Lock()
		for b, we := range c.writes.all() {
			patch[b] = we
		}
		c.vmu.Unlock()
	}
	return patch
}

// pushMergePatch propagates the merge of the chain rooted at head to the
// visible-write indexes of the flows it affects: those whose current vertex
// has target as a proper ancestor. A submission-point merge leaves the
// graph's shape around the chain unchanged (target is the chain's old
// predecessor), so affected flows receive the chain's write patch directly —
// unless a vertex strictly between their current vertex and target wrote
// one of the patched boxes, in which case the nearer write must keep
// precedence and the index is rebuilt instead. An evaluation-point merge
// relocates re-rooted children onto a genuinely different ancestor path, so
// every affected flow is invalidated. The evaluating flow's own vertex IS
// target (never a proper ancestor of itself): it updates its index at its
// boundary via absorbWrites. The patch is built only once a flow takes it.
// Caller holds top.mu exclusively.
func (t *topTx) pushMergePatch(head, target, evalFrom *vertex) {
	var patch map[*mvstm.VBox]writeEntry
	for _, ftx := range t.flowTx {
		c := ftx.cur
		if c == nil || c == target {
			continue
		}
		anc, blocked := false, false
		for v := c.pred; v != nil; v = v.pred {
			if v == target {
				anc = true
				break
			}
			if !blocked {
				v.vmu.Lock()
				for b := range v.writes.all() {
					if chainWrote(head, b) {
						blocked = true
						break
					}
				}
				v.vmu.Unlock()
			}
		}
		if !anc {
			continue
		}
		if evalFrom != nil || blocked {
			ftx.markDirtyLocked()
			continue
		}
		if ftx.vis == nil || ftx.visDirty {
			// The index is unbuilt or already awaiting a full rebuild: the
			// next refreshVis covers the merge.
			continue
		}
		if patch == nil {
			patch = chainPatch(head)
		}
		if len(patch) == 0 {
			continue
		}
		ftx.pending = append(ftx.pending, patch)
		ftx.visOK.Store(false)
	}
}

// discardChain removes the chain rooted at head without folding its writes
// (used for user-aborted futures, for stale executions about to be re-run
// and for rolled-back segments). Pending child futures spawned by the chain
// are invalidated: they can never serialize, so their evaluation reports
// ErrStaleFuture. So are futures that already merged into a discarded
// vertex — at submission into their spawning chain, at evaluation into an
// evaluator's chain, or as an inline re-execution spliced into one: their
// serialization point went with the chain, and their writes with it.
// Caller holds top.mu.
func (t *topTx) discardChain(head *vertex) {
	t.dropChain(head)
	for _, f := range t.futures {
		if f.getState() == fMerged && !f.isInvalidated() && f.home.discarded() {
			f.invalidate()
			if t.sys.recording() {
				t.sys.record(history.Op{Top: t.id, Flow: f.flow, Kind: history.FutureAbort, Arg: f.name()})
			}
		}
	}
	// Removed vertices may still be index sources for flows that descended
	// them, and the discarded writes vanish without a fold: invalidate every
	// flow's visible-write index.
	t.invalidateAllVis()
}

// dropChain marks the chain rooted at head and every pending child subtree
// discarded, invalidating the children's futures. Caller holds top.mu.
func (t *topTx) dropChain(head *vertex) {
	for c := head; c != nil; c = c.next {
		for _, child := range c.succs {
			if !child.removed() && !inChain(head, child) {
				if child.fut != nil {
					child.fut.invalidate()
					if t.sys.recording() {
						t.sys.record(history.Op{Top: t.id, Flow: child.flow, Kind: history.FutureAbort, Arg: child.fut.name()})
					}
				}
				t.dropChain(child)
			}
		}
		c.status = vDiscarded
		c.succs = nil
	}
	unlinkFromPred(head)
}

// invalidateAllVis dirties every registered flow's visible-write index.
// Caller holds top.mu exclusively.
func (t *topTx) invalidateAllVis() {
	for _, ftx := range t.flowTx {
		ftx.markDirtyLocked()
	}
}
