package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"wtftm/internal/history"
	"wtftm/internal/mvstm"
	"wtftm/internal/sched"
)

// phase tracks how far a top-level transaction has progressed; futures use
// it to decide whether serializing at submission is still possible.
type phase = int32

const (
	phaseRunning phase = iota // body executing
	phaseResolve              // commit started: resolving futures
	phaseFolding              // folding the chain write set; no more merges
	phaseDone                 // committed or aborted
)

// topTx is one attempt of a top-level transaction. Every retry builds a
// fresh topTx, so futures of an aborted attempt are permanently stale.
type topTx struct {
	sys  *System
	id   int64
	txn  *mvstm.Txn
	snap int64

	// mu guards the graph G (topology, statuses, flow/future registries)
	// and aggReads. gver is the graph's seqlock epoch: lockG bumps it to odd
	// on entry to every exclusive section and unlockG bumps it back to even,
	// so a lock-free reader that observes the same even value before and
	// after its lookups has seen a quiescent graph (the counter is monotonic,
	// so there is no ABA). It doubles as the version key for the per-future
	// validation caches.
	mu         sync.RWMutex
	gver       atomic.Int64
	root       *vertex
	nextVID    int
	flowSeq    int
	lastInFlow map[int]*Future // SO only; lazy: allocated on first Submit
	futures    []*Future
	futBuf     [8]*Future               // backs futures for a MULTI-sized fan-out
	aggReads   map[*mvstm.VBox]struct{} // lazy: allocated on first aggregated read
	// vslab is the remainder of the current vertex slab; vslabGrow is the
	// next slab's size (geometric, see pool.go).
	vslab     []vertex
	vslabGrow int

	// flowTx registers the live Tx handle of each flow (under mu), so graph
	// mutations can push visible-write-index patches and invalidations to
	// the flows they affect (see tx.go). Entries of settled flows linger
	// harmlessly until removed.
	flowTx map[int]*Tx

	// mainTx is the Tx handle of the main flow; commit folds from its
	// current vertex.
	mainTx *Tx

	// serialSubmit makes Submit wait for each future to settle before the
	// continuation proceeds (fork-join degradation after an SO conflict).
	serialSubmit bool

	// Segmented-transaction state (AtomicSegments): segMode enables partial
	// continuation rollback; curSegment is the segment the main flow is
	// executing (under mu); rollbackTo/rbCh carry rollback requests (under
	// rbMu).
	segMode    bool
	curSegment int
	rbMu       sync.Mutex
	rollbackTo int64
	rbCh       chan struct{}

	phase     atomic.Int32
	aborted   atomic.Bool
	committed atomic.Bool
	abortOnce sync.Once
	abortMu   sync.Mutex
	abortErr  error
	abortCh   chan struct{}
	commitCh  chan struct{}

	// outstanding counts futures that have not settled yet; while it is
	// non-zero at commit, the spawning snapshot stays pinned in the MV-STM so
	// escaped futures can keep reading (GAC). outCond signals drops to zero;
	// a zero observed after the main flow finished is stable because only
	// unsettled future flows can submit new futures.
	outMu       sync.Mutex
	outCond     sync.Cond
	outstanding int

	// Commit record, set after a successful MV-STM commit; escaped futures
	// resolve their observed sub-transaction reads against it. finalWID is
	// built only when some future escaped (no one else reads it).
	installed map[*mvstm.VBox]*mvstm.Version
	finalWID  map[*mvstm.VBox]int64

	// Escaped futures of *other* transactions claimed by this one; they are
	// finalized on commit and released on abort. Guarded by claimMu.
	claimMu sync.Mutex
	claims  []*Future
}

func (s *System) newTop() *topTx {
	s.yield(sched.PointTopBegin, "")
	txn := s.stm.Begin()
	t := &topTx{
		sys:      s,
		id:       s.topSeq.Add(1),
		txn:      txn,
		snap:     txn.Snapshot(),
		flowTx:   make(map[int]*Tx, 1),
		abortCh:  make(chan struct{}),
		commitCh: make(chan struct{}),
	}
	t.outCond.L = &t.outMu
	t.rollbackTo = noRollback
	t.root = t.newVertex(0, nil)
	s.record(history.Op{Top: t.id, Flow: 0, Kind: history.TopBegin})
	return t
}

func (t *topTx) nextFlow() int { t.flowSeq++; return t.flowSeq }

// lockG opens an exclusive graph mutation epoch: the seqlock counter goes
// odd BEFORE any validation scan or mutation inside the section, so a
// lock-free reader racing with the section always observes the epoch (see
// Tx.Read). unlockG closes it. Every t.mu.Lock in the package goes through
// this pair.
func (t *topTx) lockG() {
	t.mu.Lock()
	t.gver.Add(1)
}

func (t *topTx) unlockG() {
	t.gver.Add(1)
	t.mu.Unlock()
}

func (t *topTx) phaseAtLeast(p phase) bool { return t.phase.Load() >= p }

func (t *topTx) abortCause() error {
	t.abortMu.Lock()
	defer t.abortMu.Unlock()
	if t.abortErr != nil {
		return t.abortErr
	}
	return errors.New("core: top-level transaction aborted")
}

// requestAbort marks the transaction aborted and wakes every waiter. It is
// safe to call from any flow and never takes t.mu.
func (t *topTx) requestAbort(cause error) {
	t.abortOnce.Do(func() {
		t.abortMu.Lock()
		t.abortErr = cause
		t.abortMu.Unlock()
		t.aborted.Store(true)
		close(t.abortCh)
	})
}

// settleOne records that one future settled.
func (t *topTx) settleOne() {
	t.outMu.Lock()
	t.outstanding--
	if t.outstanding == 0 {
		t.outCond.Broadcast()
	}
	t.outMu.Unlock()
}

// addOutstanding registers a newly submitted future.
func (t *topTx) addOutstanding() {
	t.outMu.Lock()
	t.outstanding++
	t.outMu.Unlock()
}

// awaitQuiescent blocks until no future of this attempt is unsettled.
func (t *topTx) awaitQuiescent() {
	t.outMu.Lock()
	for t.outstanding > 0 {
		t.outCond.Wait()
	}
	t.outMu.Unlock()
}

// run executes the user body on the main flow.
func (t *topTx) run(fn func(tx *Tx) (any, error)) (val any, err error) {
	tx := &Tx{top: t, cur: t.root}
	t.mainTx = tx
	t.flowTx[0] = tx // pre-concurrency: no lock needed yet
	val, err, retry := runBody(fn, tx)
	if retry != nil {
		return nil, &retryError{cause: retry.cause}
	}
	return val, err
}

// commit drives the top-level commit protocol: resolve outstanding futures
// per the configured semantics, fold the main chain's write set, and commit
// through the MV-STM.
func (t *topTx) commit() (err error) {
	// Internal aborts signalled by concurrently failing futures unwind the
	// resolution loop via retrySignal panics.
	defer func() {
		if r := recover(); r != nil {
			if rs, ok := r.(*retrySignal); ok {
				err = &retryError{cause: rs.cause}
				return
			}
			panic(r)
		}
	}()

	t.sys.yield(sched.PointCommit, "")
	t.phase.Store(phaseResolve)
	sys := t.sys

	waitAll := sys.opts.Ordering == SO || sys.opts.Atomicity == LAC
	if waitAll {
		// Implicit evaluations may re-execute bodies that submit new
		// futures, so the registry can grow while we drain it. Snapshot the
		// slice once per growth epoch (slice headers are stable; appends
		// under t.mu never mutate the prefix) instead of locking on every
		// iteration.
		var fs []*Future
		for i := 0; ; i++ {
			if i >= len(fs) {
				t.mu.RLock()
				fs = t.futures
				t.mu.RUnlock()
				if i >= len(fs) {
					break
				}
			}
			f := fs[i]

			if waitAny2(sys.opts.Hook, f.settled, t.abortCh) == 1 {
				return &retryError{cause: t.abortCause()}
			}
			if t.aborted.Load() {
				return &retryError{cause: t.abortCause()}
			}
			if st := f.getState(); st == fFailed && t.segMode && !f.isInvalidated() {
				// A strongly ordered future conflicted while the commit was
				// resolving: replay from its submission segment. (Cancelled
				// failures were already rolled back and replaced.)
				return &segRollbackError{to: f.submitSegment}
			} else if st == fParked {
				if f.isInvalidated() {
					// Cancelled (its spawning chain was discarded): skip.
					continue
				}
				// WO+LAC: implicitly evaluate the escaping future as the
				// last sub-transaction before commit (§3.3).
				sys.stats.ImplicitEvaluations.Add(1)
				if sys.recording() {
					sys.record(history.Op{Top: t.id, Flow: t.mainTx.cur.flow, Kind: history.Evaluate, Arg: f.name() + "/implicit"})
				}
				if _, err := t.mainTx.evaluateLocal(f); err != nil {
					// The future aborted by program decision; its updates are
					// discarded and the top-level transaction proceeds.
					continue
				}
			}
		}
	}
	if t.aborted.Load() {
		return &retryError{cause: t.abortCause()}
	}

	// Fold the main chain into the MV-STM transaction.
	t.lockG()
	t.phase.Store(phaseFolding)
	escaped := 0
	for _, f := range t.futures {
		if st := f.getState(); st == fParked || st == fRunning {
			escaped++
		}
	}
	if escaped > 0 {
		t.finalWID = make(map[*mvstm.VBox]int64)
	}
	// The main chain is the predecessor path back from the main flow's
	// vertex; fold it root first, so nearer writes win. The path is walked
	// in reverse through a short stack buffer.
	var buf [16]*vertex
	mainChain := buf[:0]
	for v := t.mainTx.cur; v != nil; v = v.pred {
		mainChain = append(mainChain, v)
	}
	for i := len(mainChain) - 1; i >= 0; i-- {
		v := mainChain[i]
		v.vmu.Lock()
		for b, obs := range v.reads.all() {
			if obs.ver != nil {
				t.txn.NoteRead(b)
			}
		}
		for b, we := range v.writes.all() {
			t.txn.Write(b, we.val)
			if t.finalWID != nil {
				t.finalWID[b] = we.wid
			}
		}
		v.vmu.Unlock()
	}
	for b := range t.aggReads {
		t.txn.NoteRead(b)
	}
	t.unlockG()

	// Keep the snapshot readable for still-running escaped futures, then
	// release it once every future settled. Only a future that has not
	// settled yet can still read, so with none outstanding (always under
	// LAC, which waited for every future above) there is nothing to pin.
	// Pinning through the live Txn (rather than STM.Pin by value) is
	// race-free against concurrent commits' version GC: the pin shares the
	// registration's shard entry.
	t.outMu.Lock()
	busy := t.outstanding > 0
	t.outMu.Unlock()
	if busy {
		release := t.txn.Pin()
		go func() {
			t.awaitQuiescent()
			release()
		}()
	}

	if err := t.txn.Commit(); err != nil {
		return err
	}

	t.installed = t.txn.Installed()
	t.txn.Release() // recycled; t.installed is ours, the Txn is dead
	t.txn = nil
	t.committed.Store(true)
	t.phase.Store(phaseDone)
	if escaped > 0 {
		sys.stats.EscapedFutures.Add(int64(escaped))
	}
	t.finalizeClaims()
	close(t.commitCh)
	sys.stats.TopCommits.Add(1)
	var commitTS int64
	for _, v := range t.installed {
		commitTS = v.TS
		break
	}
	sys.record(history.Op{Top: t.id, Flow: 0, Kind: history.TopCommit, WID: commitTS})
	return nil
}

// abort discards this attempt: wake all waiters, release claimed escapes,
// drop the MV-STM transaction.
func (t *topTx) abort(cause error) {
	t.requestAbort(cause)
	t.phase.Store(phaseDone)
	t.releaseClaims()
	if t.txn != nil {
		t.txn.Discard()
		t.txn.Release()
		t.txn = nil
	}
	t.sys.record(history.Op{Top: t.id, Flow: 0, Kind: history.TopAbort})
}

// addClaim registers an escaped future of another transaction that this one
// is evaluating; its result becomes final iff this transaction commits.
func (t *topTx) addClaim(f *Future) {
	t.claimMu.Lock()
	t.claims = append(t.claims, f)
	t.claimMu.Unlock()
}

func (t *topTx) finalizeClaims() {
	t.claimMu.Lock()
	claims := t.claims
	t.claimMu.Unlock()
	for _, f := range claims {
		f.mu.Lock()
		if f.claimant == t {
			f.final = true
			if f.claimCh != nil {
				close(f.claimCh)
				f.claimCh = nil
			}
		}
		f.mu.Unlock()
	}
}

func (t *topTx) releaseClaims() {
	t.claimMu.Lock()
	claims := t.claims
	t.claims = nil
	t.claimMu.Unlock()
	for _, f := range claims {
		f.mu.Lock()
		if f.claimant == t && !f.final {
			f.claimant = nil
			if f.claimCh != nil {
				close(f.claimCh)
				f.claimCh = nil
			}
		}
		f.mu.Unlock()
	}
}
