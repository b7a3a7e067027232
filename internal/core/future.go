package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"wtftm/internal/history"
	"wtftm/internal/mvstm"
	"wtftm/internal/sched"
)

// futState is the lifecycle state of a Future. Transitions happen under the
// spawning top-level transaction's graph lock (or under f.mu for cross-top
// transitions after that transaction committed).
type futState int32

const (
	// fRunning: the body is executing.
	fRunning futState = iota
	// fParked: the body completed but the future could not serialize at its
	// submission point; it waits, invisible, for an evaluation (WO only).
	fParked
	// fMerged: the future serialized (at submission or evaluation) and its
	// result is final within its enclosing transaction.
	fMerged
	// fReexecuting: a conflicting parked future is being re-executed at an
	// evaluation point.
	fReexecuting
	// fFailed: an SO future whose continuation read its writes; the
	// top-level transaction is aborting.
	fFailed
	// fUserAborted: the body returned a non-nil error (program-requested
	// abort); its updates are discarded.
	fUserAborted
	// fStale: the spawning top-level transaction attempt aborted; the
	// future can never serialize.
	fStale
)

var errSOConflict = errors.New("core: continuation read data written by a strongly ordered future")

// Future is a handle to a transactional future. It is created by Tx.Submit
// and redeemed by Tx.Evaluate. A Future may be evaluated any number of
// times; every evaluation returns the result of the single committed
// execution of the body (§3.2).
type Future struct {
	sys  *System
	top  *topTx
	id   int
	flow int
	body func(*Tx) (any, error)

	// vertex is the first vertex of the body's chain; cont is the
	// continuation vertex created alongside it. Guarded by top.mu.
	vertex *vertex
	cont   *vertex

	// ftx is the body's Tx handle, set up at Submit (under top.mu) so the
	// flow's visible-write index is registered before the body runs.
	ftx Tx

	// prevInFlow is the previously submitted future of the same spawning
	// flow; under SO semantics this future's merge waits for it (the
	// paper's straggler effect, Fig. 3). Unset under WO.
	prevInFlow *Future

	// submitSegment is the AtomicSegments segment this future was submitted
	// in (0 outside segmented transactions).
	submitSegment int

	// execDone closes when the body's first execution finishes; settled
	// closes when the engine classified that execution (merged, parked,
	// failed, aborted or stale).
	execDone chan struct{}
	settled  chan struct{}

	// invalid marks a pending future whose observed ancestor state was
	// discarded (its spawning chain was itself discarded); it must
	// re-execute at evaluation.
	invalid atomic.Bool

	// extraPathWrites accumulates the boxes whose writes are logically
	// ordered between this future's observation point and its current
	// position in G (they arise when the spawning chain merges away and the
	// future is re-rooted). Both validations treat them as concurrent
	// writes. extraSum is the set's Bloom summary. Guarded by top.mu.
	extraPathWrites map[*mvstm.VBox]struct{}
	extraSum        uint64

	// sets caches the read/write box sets of the body's chain. The chain is
	// frozen once the body finishes (the flow appends no more vertices and
	// merges never target a completed future's vertices), so the cache
	// computed when the future settles is reused verbatim by a later
	// evaluation-point validation; the tail vertex id is kept as a staleness
	// guard. Guarded by top.mu.
	sets chainSets

	// home is the vertex the future's effects landed in when it reached
	// fMerged: its merge target, or the head of its inline re-execution. A
	// later discard of home (directly or through the merges that folded it
	// on) cancels the future (see discardChain). Guarded by top.mu.
	home *vertex

	state  atomic.Int32
	result any   // body result; final once state is fMerged
	err    error // body error; set with state fUserAborted

	// reexecCh is non-nil while state is fReexecuting and closes when the
	// re-execution finished. Guarded by top.mu.
	reexecCh chan struct{}

	// Cross-top (GAC) evaluation coordination. Guarded by mu.
	mu       sync.Mutex
	detach   *detachRec
	claimant *topTx
	claimCh  chan struct{}
	final    bool
}

// name is the future's display name ("T<top>.F<id>"). Only history records
// and scheduler hooks consume it, so call sites format it only when a
// Recorder or Hook is installed.
func (f *Future) name() string {
	return "T" + strconv.FormatInt(f.top.id, 10) + ".F" + strconv.Itoa(f.id)
}

// Done returns a channel that closes when the future's body has finished
// executing. Benchmark harnesses use it to evaluate futures out of order as
// soon as they complete (the WTF-TM-OutOfOrder variant of §5.3).
func (f *Future) Done() <-chan struct{} { return f.execDone }

// addExtraPathWrites accumulates relocation writes. Caller holds top.mu.
func (f *Future) addExtraPathWrites(boxes map[*mvstm.VBox]struct{}) {
	if len(boxes) == 0 {
		return
	}
	if f.extraPathWrites == nil {
		f.extraPathWrites = make(map[*mvstm.VBox]struct{}, len(boxes))
	}
	for b := range boxes {
		f.extraPathWrites[b] = struct{}{}
		f.extraSum |= b.Summary()
	}
}

// chainSets holds the read/write box sets of a completed future's chain and
// their Bloom summaries, cached on the Future (see Future.sets).
type chainSets struct {
	tail     int // id of the chain tail at computation time (0: never computed)
	writes   iset[struct{}]
	reads    iset[struct{}]
	writeSum uint64
	readSum  uint64
}

// chainSetsLocked returns the (cached) box sets of the future's chain,
// recomputing only if the chain's tail changed since they were captured.
// Caller holds top.mu.
func (f *Future) chainSetsLocked() *chainSets {
	tail := f.vertex
	for tail.next != nil {
		tail = tail.next
	}
	cs := &f.sets
	if cs.tail != tail.id {
		*cs = chainSets{tail: tail.id}
		cs.writeSum = chainWriteBoxes(f.vertex, &cs.writes)
		cs.readSum = chainReadBoxes(f.vertex, f.flow, &cs.reads)
	}
	return cs
}

// extraConflict reports whether the chain read a box in extraPathWrites,
// summary-gated. Caller holds top.mu.
func (f *Future) extraConflict(cs *chainSets) bool {
	if cs.readSum&f.extraSum == 0 {
		return false
	}
	for b := range cs.reads.all() {
		if _, ok := f.extraPathWrites[b]; ok {
			return true
		}
	}
	return false
}

func (f *Future) getState() futState  { return futState(f.state.Load()) }
func (f *Future) setState(s futState) { f.state.Store(int32(s)) }
func (f *Future) invalidate()         { f.invalid.Store(true) }
func (f *Future) isInvalidated() bool { return f.invalid.Load() }

// run executes the body on a runner goroutine (pool.go) and then classifies
// the execution (the paper's future commit protocol).
func (f *Future) run() {
	sys := f.sys
	if h := sys.opts.Hook; h != nil {
		h.TaskBegin()
		defer h.TaskEnd()
	}
	tx := &f.ftx
	if sys.recording() {
		sys.record(history.Op{Top: f.top.id, Flow: f.flow, Kind: history.FutureBegin, Arg: f.name()})
	}
	res, err, retry := runBody(f.body, tx)
	close(f.execDone)
	defer func() {
		// Count the settlement before announcing it: a commit that saw every
		// future settled then also sees none outstanding, and takes no pin.
		f.top.settleOne()
		close(f.settled)
	}()
	if h := sys.opts.Hook; h != nil {
		h.Yield(sched.PointFutureSettle, f.name())
	}

	if retry != nil || f.top.aborted.Load() {
		f.setState(fStale)
		return
	}
	if err != nil {
		f.top.lockG()
		delete(f.top.flowTx, f.flow)
		f.top.discardChain(f.vertex)
		f.err = err
		f.setState(fUserAborted)
		f.top.unlockG()
		if sys.recording() {
			sys.record(history.Op{Top: f.top.id, Flow: f.flow, Kind: history.FutureAbort, Arg: f.name()})
		}
		return
	}

	// Under SO semantics futures serialize at submission in submission
	// order within their flow: wait for the previous sibling to settle so a
	// straggler stalls its successors, exactly as in JTF.
	if f.sys.opts.Ordering == SO {
		for p := f.prevInFlow; p != nil; p = nil {
			if waitAny2(f.sys.opts.Hook, p.settled, f.top.abortCh) == 1 {
				f.setState(fStale)
				return
			}
		}
	}

	top := f.top
	top.lockG()
	defer top.unlockG()
	// The body finished: its Tx resolves no further reads, so its index no
	// longer needs invalidations.
	delete(top.flowTx, f.flow)
	if top.aborted.Load() {
		f.setState(fStale)
		return
	}
	if top.phaseAtLeast(phaseFolding) {
		// The top-level transaction is already folding its write set (GAC):
		// this future can no longer serialize at submission and must escape.
		f.result = res
		f.setState(fParked)
		return
	}
	if f.isInvalidated() || f.vertex.removed() {
		// The spawning chain was discarded: this execution is cancelled and
		// can never serialize.
		f.setState(fParked)
		return
	}
	f.result = res
	cs := f.chainSetsLocked()
	canMergeAtSubmission := !forwardConflicts(f.cont, &cs.writes, cs.writeSum, f.vertex) &&
		!f.extraConflict(cs)
	if canMergeAtSubmission {
		f.home = f.vertex.pred
		top.mergeChain(f.vertex, f.home, nil)
		f.setState(fMerged)
		f.sys.stats.MergedAtSubmission.Add(1)
		f.sys.record(history.Op{Top: top.id, Flow: f.flow, Kind: history.FutureMerge, Arg: "submission"})
		return
	}
	if f.sys.opts.Ordering == SO {
		// A continuation sub-transaction observed state this future is about
		// to overwrite: under SO the continuation must abort. With
		// AtomicSegments only the segments from this future's submission
		// point replay (partial continuation rollback); plain Atomic retries
		// the whole transaction since Go lacks first-class continuations
		// (see DESIGN.md, substitutions).
		f.setState(fFailed)
		f.sys.stats.TopInternal.Add(1)
		if top.segMode {
			top.requestRollback(f.submitSegment)
		} else {
			top.requestAbort(errSOConflict)
		}
		return
	}
	f.setState(fParked)
}

// runBody executes a transaction body, converting the package's control-flow
// panics back into values. Arbitrary panics from user code are captured as
// errors so a failing future aborts instead of crashing the process.
func runBody(body func(*Tx) (any, error), tx *Tx) (res any, err error, retry *retrySignal) {
	defer func() {
		r := recover()
		switch r := r.(type) {
		case nil:
		case *retrySignal:
			retry = r
		case *userAbort:
			err = r.err
		default:
			err = fmt.Errorf("core: transaction body panicked: %v", r)
		}
	}()
	res, err = body(tx)
	return
}

// evaluateLocal implements Evaluate for a future of the caller's own
// top-level transaction.
func (tx *Tx) evaluateLocal(f *Future) (any, error) {
	top := tx.top
	for {
		tx.await(f.settled)
		top.lockG()
		if top.aborted.Load() {
			top.unlockG()
			panic(&retrySignal{cause: top.abortCause()})
		}
		switch f.getState() {
		case fUserAborted:
			top.unlockG()
			return nil, f.err

		case fFailed, fStale:
			top.unlockG()
			if top.segMode && f.getState() == fFailed {
				panic(&segSignal{to: f.submitSegment})
			}
			panic(&retrySignal{cause: errSOConflict})

		case fMerged:
			if f.isInvalidated() {
				// The future merged into a chain that was later discarded:
				// its serialization point, and its writes, went with it.
				top.unlockG()
				return nil, ErrStaleFuture
			}
			// Idempotent repeated evaluation: return the memoized result.
			// The evaluation is still a sub-transaction boundary.
			tx.boundaryLocked()
			top.unlockG()
			return f.result, nil

		case fReexecuting:
			ch := f.reexecCh
			top.unlockG()
			tx.await(ch)
			continue

		case fParked:
			if f.isInvalidated() {
				// The future's spawning chain was discarded (e.g. its spawner
				// aborted): it is cancelled and can never serialize.
				top.unlockG()
				return nil, ErrStaleFuture
			}
			{
				cs := f.chainSetsLocked()
				conflict, ok := backwardConflicts(tx.cur, f.vertex.pred, &cs.reads, cs.readSum)
				if faultSkipBackwardValidation {
					// conform_fault: pretend backward validation passed. The
					// conformance harness must flag the resulting histories.
					conflict = false
				}
				if ok && !conflict && !f.extraConflict(cs) {
					// Serialize at the evaluation point: merge the chain into
					// the evaluator's (iCommitting) sub-transaction.
					cur := tx.cur
					cur.status = vICommitted
					f.home = cur
					top.mergeChain(f.vertex, cur, cur)
					// The fold just landed the chain's writes in cur, which
					// becomes a proper ancestor of the next vertex.
					tx.absorbWrites(cur)
					next := top.newVertex(cur.flow, cur)
					tx.cur = next
					f.setState(fMerged)
					f.sys.stats.MergedAtEvaluation.Add(1)
					f.sys.record(history.Op{Top: top.id, Flow: f.flow, Kind: history.FutureMerge, Arg: "evaluation"})
					top.unlockG()
					return f.result, nil
				}
			}
			// The future read state that concurrent sub-transactions
			// overwrote (or its ancestors were discarded): abort it and
			// re-execute at the evaluation point, where it trivially
			// serializes.
			f.setState(fReexecuting)
			f.reexecCh = make(chan struct{})
			top.discardChain(f.vertex)
			top.unlockG()

			f.sys.stats.FutureReexecutions.Add(1)
			if f.sys.recording() {
				f.sys.record(history.Op{Top: top.id, Flow: f.flow, Kind: history.FutureAbort, Arg: f.name()})
			}
			res, err, head := tx.runInline(f)

			top.lockG()
			if err != nil {
				f.err = err
				f.setState(fUserAborted)
				if f.sys.recording() {
					f.sys.record(history.Op{Top: top.id, Flow: f.flow, Kind: history.FutureAbort, Arg: f.name()})
				}
			} else {
				f.result = res
				f.home = head
				f.setState(fMerged)
				f.sys.stats.MergedAtEvaluation.Add(1)
				f.sys.record(history.Op{Top: top.id, Flow: f.flow, Kind: history.FutureMerge, Arg: "evaluation"})
			}
			close(f.reexecCh)
			f.reexecCh = nil
			top.unlockG()
			return res, err

		default:
			top.unlockG()
			panic(fmt.Sprintf("core: future %s settled in state %d", f.name(), f.getState()))
		}
	}
}

// boundaryLocked iCommits the current sub-transaction and starts a new one
// in the same flow. Caller holds top.mu exclusively.
func (tx *Tx) boundaryLocked() {
	cur := tx.cur
	cur.status = vICommitted
	tx.absorbWrites(cur)
	tx.cur = tx.top.newVertex(cur.flow, cur)
}

// runInline executes f's body synchronously as a fresh sub-transaction chain
// positioned at the caller's current point (used to re-execute conflicting
// futures at their evaluation point). On success the chain is left
// iCommitted on the caller's predecessor path; on a body error it is
// discarded. head is the inline chain's first vertex.
func (tx *Tx) runInline(f *Future) (res any, err error, head *vertex) {
	top := tx.top
	top.lockG()
	cur := tx.cur
	cur.status = vICommitted
	rv := top.newVertex(top.nextFlow(), cur)
	// Splice the inline chain into the evaluator's same-flow chain links so
	// that, if the evaluator is itself a future, its eventual merge folds
	// the re-execution's effects too (chain walks follow next pointers).
	cur.next = rv
	sub := &Tx{top: top, cur: rv}
	top.flowTx[rv.flow] = sub
	top.unlockG()

	if sys := top.sys; sys.recording() {
		sys.record(history.Op{Top: top.id, Flow: rv.flow, Kind: history.FutureBegin, Arg: f.name()})
	}
	res, err, retry := runBody(f.body, sub)
	if retry != nil {
		panic(retry)
	}

	top.lockG()
	delete(top.flowTx, rv.flow)
	if err != nil {
		top.discardChain(rv)
		tx.cur = top.newVertex(cur.flow, cur) // also re-points cur.next
	} else {
		tail := sub.cur
		tail.status = vICommitted
		next := top.newVertex(cur.flow, tail)
		tail.next = next // cross-flow chain splice (see above)
		tx.cur = next
		// The inline chain now sits on this flow's ancestor path; adopt the
		// sub-handle's index (visible-at-tail) plus tail's own writes, or
		// rebuild lazily if the sub-handle's index isn't current.
		if sub.visOK.Load() {
			tx.vis = sub.vis
			tx.pending = tx.pending[:0]
			tx.visDirty = false
			tx.visOK.Store(true)
			tx.absorbWrites(tail)
		} else {
			tx.markDirtyLocked()
		}
	}
	top.unlockG()
	return res, err, rv
}
