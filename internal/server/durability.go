// Durability wiring for wtfd (DESIGN.md §11): the glue between the serving
// path and persist.Manager.
//
// The one invariant everything here serves: a client is acknowledged only
// after its write satisfies the configured sync policy, and the WAL's record
// order equals the STM's commit order per shard. The second half is what the
// per-shard commit locks buy — a writing request holds the locks of every
// shard it may write across the STM commit AND the in-memory WAL append, so
// no other commit for those shards can slip between the two. Fsyncs happen
// after unlock (they order nothing; they only make the already-ordered prefix
// durable), and concurrent group barriers coalesce inside wal.Log.Sync.
//
// Lock ordering: every path acquires its shard locks in ascending shard
// order — solo ops hold one, group commits hold the executor's candidate
// write shards, MULTI holds its batch's candidate write shards — so the
// paths cannot deadlock each other (or the checkpointer, which holds one
// shard lock at a time).
//
// Only *effective* writes are logged: a PUT or a matched CAS logs a put, a
// DEL that removed a key logs a delete; reads, missed deletes and mismatched
// CASes contribute nothing (they performed no store write, so replay without
// them reproduces the committed state exactly). A failed append or sync
// makes the request fail — the in-memory commit may be ahead of the log at
// that instant, but the client was never acked, and the WAL's sticky error
// keeps every later write failing until the operator replaces the disk.
package server

import (
	"sync"
	"sync/atomic"
	"time"

	"wtftm"
	"wtftm/internal/obs"
	"wtftm/internal/persist"
	"wtftm/internal/tstruct"
	"wtftm/internal/wal"
	"wtftm/internal/wire"
)

// durability is the server's handle on the persistence layer; nil on a
// memory-only server.
//
// Under SyncGroup the fsync barrier is asynchronous: an executor that
// commits a group appends its records, acks the group's reads immediately
// (they depend on the commit, not the disk) and hands the write responses
// to the ack daemon instead of fsyncing inline — it never blocks on the
// disk, so reads queued behind a write group are not stalled for its
// barrier. The single ack daemon drains everything enqueued, fsyncs the
// union of the touched shards' logs (in parallel — independent files whose
// journal commits the file system shares), releases all the acks at once,
// and immediately starts over on whatever arrived meanwhile. The batch per
// fsync therefore grows with load — the classic group-commit self-clock:
// while one fsync is in flight the next batch accumulates — and one global
// daemon (rather than one per shard) keeps the arrival stream undivided, so
// batching survives high shard counts. No client is ever acked before its
// records are durable, exactly as if the barrier were inline.
type durability struct {
	mgr    *persist.Manager
	policy wal.SyncPolicy
	srv    *Server // backref for metrics (srv.m) and the flight recorder

	ackCh    chan *ackBatch // non-nil only under SyncGroup
	ackDelay time.Duration  // commit-delay window (Config.CommitDelay)
	ackWG    sync.WaitGroup

	batchOpsHWM    atomic.Int64
	appendFailures atomic.Int64

	scratch sync.Pool // *durScratch
	ackPool sync.Pool // *ackBatch
}

// ackBatch is one committed group's deferred write responses plus the shards
// whose logs must be durable before they may go out.
type ackBatch struct {
	tasks  []task
	shards []int
	t0     int64 // obs.Now() at hand-off; sync stage = fsync done − t0
}

// asyncAck reports whether write acks ride the ack daemon.
func (d *durability) asyncAck() bool { return d.ackCh != nil }

// deferAck hands a committed, appended group's effective-write responses to
// the ack daemon and sends everything else (reads, writes that logged
// nothing — a mismatched CAS, a missed delete) immediately. It reports
// false — the caller must ack everything inline — when the policy has no
// group barrier or the group appended nothing.
func (d *durability) deferAck(sc *durScratch, group []task) bool {
	if d.ackCh == nil || len(sc.appended) == 0 {
		return false
	}
	b := d.ackPool.Get().(*ackBatch)
	for i := range group {
		t := group[i]
		if effectiveWrite(&t.req.Cmd, t.resp.Result) {
			b.tasks = append(b.tasks, t)
			continue
		}
		wire.ReleaseRequest(t.req)
		t.c.send(t.resp)
		t.c.retire(t.wshard)
	}
	b.shards = append(b.shards[:0], sc.appended...)
	b.t0 = obs.Now()
	d.ackCh <- b
	return true
}

// maxAckOps caps how many deferred write acks one fsync cycle may cover:
// under overload the daemon flushes at the cap instead of letting the
// commit-delay window grow the batch (and every ack's latency) unboundedly.
const maxAckOps = 256

// ackLoop is the group-commit daemon: collect what the commit-delay window
// accumulates, fsync the union of touched shards, release the acks, repeat.
func (d *durability) ackLoop() {
	defer d.ackWG.Done()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	var (
		batch  []*ackBatch
		shards []int
	)
	for first := range d.ackCh {
		batch = append(batch[:0], first)
		n := len(first.tasks)
		if d.ackDelay > 0 {
			// Hold the barrier open: commits landing inside the window share
			// this cycle's fsyncs instead of paying for their own.
			timer.Reset(d.ackDelay)
		wait:
			for n < maxAckOps {
				select {
				case b, ok := <-d.ackCh:
					if !ok {
						break wait
					}
					batch = append(batch, b)
					n += len(b.tasks)
				case <-timer.C:
					break wait
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		// Sweep whatever else is already queued — it costs nothing.
		for more := n < maxAckOps; more; {
			select {
			case b, ok := <-d.ackCh:
				if !ok {
					more = false
				} else {
					batch = append(batch, b)
					n += len(b.tasks)
					more = n < maxAckOps
				}
			default:
				more = false
			}
		}
		shards = shards[:0]
		for _, b := range batch {
			for _, sh := range b.shards {
				shards = insertShard(shards, sh)
			}
		}
		err := d.syncShards(shards)
		var failRes wire.Result
		if err != nil {
			failRes = d.failResult(err)
		}
		// Deferred acks' sync stage is the whole hand-off→durable wait (the
		// commit-delay window plus the shared fsync), attributed to the group
		// op class like the rest of the ack-daemon path.
		m := d.srv.m
		synced := obs.Now()
		for _, b := range batch {
			m.stage[stSync][opcGroup].Observe(synced - b.t0)
			for i := range b.tasks {
				t := b.tasks[i]
				if err != nil {
					t.resp.Result = failRes
				}
				if m.slowNS > 0 && t.enq > 0 {
					if total := t.dec + (synced - t.enq); total >= m.slowNS {
						kh, sh := d.srv.flightKey(t.req)
						m.recordFlight(t.req.Op, kh, sh, t.resp.Result.Status,
							t.dec, 0, 0, synced-b.t0, 0, total)
					}
				}
				wire.ReleaseRequest(t.req)
				t.c.send(t.resp)
				t.c.retire(t.wshard)
			}
			clear(b.tasks)
			b.tasks = b.tasks[:0]
			b.shards = b.shards[:0]
			d.ackPool.Put(b)
		}
		m.stage[stFlush][opcGroup].Observe(obs.Now() - synced)
		clear(batch)
	}
}

// close stops the ack daemon (executors are already quiescent, so nothing
// new can arrive; queued acks are still synced and delivered) and shuts the
// persistence layer down.
func (d *durability) close() error {
	if d.ackCh != nil {
		close(d.ackCh)
		d.ackWG.Wait()
	}
	return d.mgr.Close()
}

// durScratch is the pooled per-request working set of the durable write
// path: the per-op shard routing, the candidate/appended shard lists and the
// batch encode buffer.
type durScratch struct {
	cmdShard []int // per-op target shard; -1 = op cannot write
	shards   []int // candidate write shards, ascending unique
	appended []int // shards that received a record this request
	buf      []byte
}

func (sc *durScratch) reset(n int) {
	if cap(sc.cmdShard) < n {
		sc.cmdShard = make([]int, n)
	}
	sc.cmdShard = sc.cmdShard[:n]
	sc.shards = sc.shards[:0]
	sc.appended = sc.appended[:0]
}

// addShard inserts sh into the ascending unique candidate list.
func (sc *durScratch) addShard(sh int) {
	sc.shards = insertShard(sc.shards, sh)
}

// insertShard inserts sh into an ascending unique shard list.
func insertShard(list []int, sh int) []int {
	i := 0
	for ; i < len(list); i++ {
		if list[i] == sh {
			return list
		}
		if list[i] > sh {
			break
		}
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = sh
	return list
}

// newDurability opens the data directory, recovers the store (snapshot
// restore + WAL replay through the recoverer's batched transactions) and
// returns the serving-path handle. Called from New before any traffic.
func newDurability(s *Server, cfg Config) (*durability, error) {
	d := &durability{policy: cfg.Fsync, srv: s}
	d.scratch.New = func() any { return new(durScratch) }
	d.ackPool.New = func() any { return new(ackBatch) }
	rec := &recoverer{s: s}
	snapEvery := cfg.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = 1 << 16
	} else if snapEvery < 0 {
		snapEvery = 0 // explicit "never checkpoint"
	}
	mgr, err := persist.Open(persist.Options{
		FS:            cfg.FS,
		Dir:           cfg.DataDir,
		Shards:        cfg.Shards,
		Sync:          cfg.Fsync,
		SegmentBytes:  cfg.SegmentBytes,
		SnapshotEvery: snapEvery,
		Source:        s.snapshotSource,
		Restore:       rec.restore,
		Apply:         rec.apply,
	})
	if err != nil {
		return nil, err
	}
	if err := rec.flush(); err != nil {
		mgr.Close()
		return nil, err
	}
	d.mgr = mgr
	if cfg.Fsync == wal.SyncGroup && cfg.GroupLimit > 1 {
		d.ackCh = make(chan *ackBatch, 4*cfg.Shards)
		d.ackDelay = cfg.CommitDelay
		d.ackWG.Add(1)
		go d.ackLoop()
	}
	return d, nil
}

// recoverer batches snapshot-entry restores into bulk transactions (one
// PackedMap.Restore per 1024 entries instead of one commit per entry). Apply
// flushes first, so replayed records always see the restored prefix.
type recoverer struct {
	s       *Server
	shard   int
	pending []tstruct.PackedKV
}

func (r *recoverer) restore(shard int, key string, val []byte) error {
	if shard != r.shard {
		if err := r.flush(); err != nil {
			return err
		}
		r.shard = shard
	}
	r.pending = append(r.pending, tstruct.PackedKV{Key: key, Val: string(val)})
	if len(r.pending) >= 1024 {
		return r.flush()
	}
	return nil
}

func (r *recoverer) flush() error {
	if len(r.pending) == 0 {
		return nil
	}
	m := r.s.store.shards[r.shard]
	kvs := r.pending
	err := r.s.sys.Atomic(func(tx *wtftm.Tx) error {
		m.Restore(tx, kvs)
		return nil
	})
	r.pending = r.pending[:0]
	return err
}

func (r *recoverer) apply(shard int, seq uint64, payload []byte) error {
	if err := r.flush(); err != nil {
		return err
	}
	m := r.s.store.shards[shard]
	return r.s.sys.Atomic(func(tx *wtftm.Tx) error {
		return wal.DecodeBatch(payload, func(op wal.Op) error {
			switch op.Kind {
			case wal.OpPut:
				m.Put(tx, op.Key, op.Val)
			case wal.OpDel:
				m.Delete(tx, op.Key)
			}
			return nil
		})
	})
}

// snapshotSource feeds a shard's consistent entry set to the checkpointer
// (persist calls it with the shard's commit lock held, so the snapshot read
// transaction sees exactly the state the log frontier describes).
func (s *Server) snapshotSource(shard int, emit func(key string, val []byte) error) error {
	var kvs []tstruct.PackedKV
	err := s.sys.Atomic(func(tx *wtftm.Tx) error {
		kvs = s.store.shards[shard].Snapshot(tx, kvs[:0])
		return nil
	})
	if err != nil {
		return err
	}
	for _, kv := range kvs {
		if err := emit(kv.Key, []byte(kv.Val)); err != nil {
			return err
		}
	}
	return nil
}

// canWrite reports whether an op kind may mutate the store.
func canWrite(op wire.Op) bool {
	switch op {
	case wire.OpPut, wire.OpDel, wire.OpCAS:
		return true
	}
	return false
}

// effectiveWrite reports whether a committed command actually mutated the
// store: PUT and matched CAS always, DEL only when the key existed.
func effectiveWrite(cmd *wire.Cmd, res wire.Result) bool {
	return res.Status == wire.StatusOK && canWrite(cmd.Op)
}

// appendOp encodes one effective write into an in-progress batch.
func appendOp(buf []byte, cmd *wire.Cmd) []byte {
	if cmd.Op == wire.OpDel {
		return wal.AppendDel(buf, cmd.Key)
	}
	return wal.AppendPut(buf, cmd.Key, cmd.Val) // PUT or matched CAS
}

func (d *durability) noteBatchOps(n int) {
	d.srv.m.batchOps.Observe(int64(n))
	for {
		cur := d.batchOpsHWM.Load()
		if int64(n) <= cur || d.batchOpsHWM.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// lockShards acquires every candidate shard's commit lock, ascending.
func (d *durability) lockShards(sc *durScratch) {
	for _, sh := range sc.shards {
		d.mgr.Lock(sh)
	}
}

func (d *durability) unlockShards(sc *durScratch) {
	for _, sh := range sc.shards {
		d.mgr.Unlock(sh)
	}
}

// syncAppended runs the group-commit barrier on every shard that received a
// record. Under SyncAlways the appends already synced; under SyncOff
// durability is deferred to rotation/shutdown by design. Multi-shard
// barriers fan the fsyncs out in parallel: the shards' logs are independent
// files, so the barrier's latency is one fsync, not one per shard (and
// concurrent barriers against the same shard still coalesce inside
// wal.Log.Sync).
func (d *durability) syncAppended(sc *durScratch) error {
	if d.policy != wal.SyncGroup {
		return nil
	}
	return d.syncShards(sc.appended)
}

// syncShards fsyncs every listed shard's log, in parallel when there is more
// than one: the logs are independent files, so the barrier's latency is one
// fsync, not one per shard (and concurrent barriers against the same shard
// still coalesce inside wal.Log.Sync).
func (d *durability) syncShards(shards []int) error {
	if len(shards) == 0 {
		return nil
	}
	t0 := obs.Now()
	var firstErr error
	if len(shards) == 1 {
		firstErr = d.mgr.Sync(shards[0])
	} else {
		var (
			wg sync.WaitGroup
			mu sync.Mutex
		)
		for _, sh := range shards {
			wg.Add(1)
			go func(sh int) {
				defer wg.Done()
				if err := d.mgr.Sync(sh); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}(sh)
		}
		wg.Wait()
	}
	// One observation per barrier: multi-shard fans out in parallel, so the
	// barrier's latency is one fsync regardless of shard count.
	d.srv.m.fsyncLat.Observe(obs.Now() - t0)
	return firstErr
}

// failResult counts and formats a never-acked durability failure.
func (d *durability) failResult(err error) wire.Result {
	d.appendFailures.Add(1)
	return wire.ErrResult("server: write not durable: " + err.Error())
}

// executeDurableSolo is the durable path for one single-key write: commit
// lock → STM transaction → WAL append → unlock → sync barrier → ack.
func (s *Server) executeDurableSolo(req *wire.Request, sr *stageRec) wire.Result {
	d := s.dur
	sh := s.store.shardOf(req.Cmd.Key)
	sc := d.scratch.Get().(*durScratch)
	sc.appended = sc.appended[:0]

	d.mgr.Lock(sh)
	var res wire.Result
	err := s.sys.Atomic(func(tx *wtftm.Tx) error {
		res = s.store.apply(tx, &req.Cmd)
		return nil
	})
	var durErr error
	if err == nil && effectiveWrite(&req.Cmd, res) {
		d.noteBatchOps(1)
		sc.buf = appendOp(wal.AppendBatchHeader(sc.buf[:0], 1), &req.Cmd)
		if _, durErr = d.mgr.Append(sh, sc.buf); durErr == nil {
			sc.appended = append(sc.appended, sh)
		}
	}
	d.mgr.Unlock(sh)

	if durErr == nil && len(sc.appended) > 0 && d.policy == wal.SyncGroup {
		t0 := obs.Now()
		durErr = d.mgr.Sync(sh)
		ns := obs.Now() - t0
		s.m.fsyncLat.Observe(ns)
		sr.addSync(ns)
	}
	d.scratch.Put(sc)
	switch {
	case err != nil:
		return wire.ErrResult(err.Error())
	case durErr != nil:
		return d.failResult(durErr)
	}
	return res
}

// lockGroup computes a group commit's candidate write shards and takes their
// locks. Returns nil when the group cannot write (all GETs) — no locks, no
// append, no barrier.
func (d *durability) lockGroup(s *Server, group []task) *durScratch {
	sc := d.scratch.Get().(*durScratch)
	sc.reset(len(group))
	for i := range group {
		sc.cmdShard[i] = -1
		if canWrite(group[i].req.Op) {
			sh := s.store.shardOf(group[i].req.Cmd.Key)
			sc.cmdShard[i] = sh
			sc.addShard(sh)
		}
	}
	if len(sc.shards) == 0 {
		d.scratch.Put(sc)
		return nil
	}
	d.lockShards(sc)
	return sc
}

// appendGroup logs each shard's effective writes (queue order) as one batch.
// Caller holds the group's shard locks and a committed transaction's results.
func (d *durability) appendGroup(sc *durScratch, group []task) error {
	for _, sh := range sc.shards {
		n := 0
		for i := range group {
			if sc.cmdShard[i] == sh && effectiveWrite(&group[i].req.Cmd, group[i].resp.Result) {
				n++
			}
		}
		if n == 0 {
			continue
		}
		d.noteBatchOps(n)
		buf := wal.AppendBatchHeader(sc.buf[:0], n)
		for i := range group {
			if sc.cmdShard[i] == sh && effectiveWrite(&group[i].req.Cmd, group[i].resp.Result) {
				buf = appendOp(buf, &group[i].req.Cmd)
			}
		}
		sc.buf = buf
		if _, err := d.mgr.Append(sh, buf); err != nil {
			return err
		}
		sc.appended = append(sc.appended, sh)
	}
	return nil
}

// lockBatch is lockGroup for a MULTI batch.
func (d *durability) lockBatch(s *Server, batch []wire.Cmd) *durScratch {
	sc := d.scratch.Get().(*durScratch)
	sc.reset(len(batch))
	for i := range batch {
		sc.cmdShard[i] = -1
		if canWrite(batch[i].Op) {
			sh := s.store.shardOf(batch[i].Key)
			sc.cmdShard[i] = sh
			sc.addShard(sh)
		}
	}
	if len(sc.shards) == 0 {
		d.scratch.Put(sc)
		return nil
	}
	d.lockShards(sc)
	return sc
}

// appendBatch logs a committed MULTI's effective writes, one record per
// touched shard, batch order within each.
func (d *durability) appendBatch(sc *durScratch, batch []wire.Cmd, results []wire.Result) error {
	for _, sh := range sc.shards {
		n := 0
		for i := range batch {
			if sc.cmdShard[i] == sh && effectiveWrite(&batch[i], results[i]) {
				n++
			}
		}
		if n == 0 {
			continue
		}
		d.noteBatchOps(n)
		buf := wal.AppendBatchHeader(sc.buf[:0], n)
		for i := range batch {
			if sc.cmdShard[i] == sh && effectiveWrite(&batch[i], results[i]) {
				buf = appendOp(buf, &batch[i])
			}
		}
		sc.buf = buf
		if _, err := d.mgr.Append(sh, buf); err != nil {
			return err
		}
		sc.appended = append(sc.appended, sh)
	}
	return nil
}

// release returns a scratch to the pool (after unlockShards).
func (d *durability) release(sc *durScratch) { d.scratch.Put(sc) }

// walStats assembles the STATS durability section.
func (d *durability) walStats(cfg *Config, nowUnixNano int64) *wire.WALStats {
	ps := d.mgr.Stats()
	age := int64(-1)
	if ps.LastSnapshotUnixNano > 0 {
		age = (nowUnixNano - ps.LastSnapshotUnixNano) / 1e6
	}
	return &wire.WALStats{
		Fsync:             d.policy.String(),
		DataDir:           cfg.DataDir,
		AppendedRecords:   ps.AppendedRecords,
		AppendedBytes:     ps.AppendedBytes,
		Fsyncs:            ps.Fsyncs,
		Segments:          ps.Segments,
		RemovedSegments:   ps.RemovedSegments,
		TruncatedBytes:    ps.TruncatedBytes,
		BatchOpsHWM:       d.batchOpsHWM.Load(),
		AppendFailures:    d.appendFailures.Load(),
		Snapshots:         ps.Snapshots,
		SnapshotErrors:    ps.SnapshotErrors,
		LastSnapshotSeq:   ps.LastSnapshotSeq,
		LastSnapshotAgeMS: age,
		RecoveredRecords:  ps.RecoveredRecords,
	}
}
