package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"wtftm/internal/core"
	"wtftm/internal/mvstm"
	"wtftm/internal/persist"
	"wtftm/internal/tstruct"
	"wtftm/internal/wal"
	"wtftm/internal/wire"
)

// The ladder replays the workload's seeded op stream in this process, one
// layer ("rung") at a time, through each module's public API. The
// benchmark's own code calls the next layer down, so the spans nest:
// core.atomic > core.submit / core.evaluate > tstruct.get / tstruct.put,
// and mvstm.txn > tstruct.* + mvstm.commit.
const (
	ladderOps     = 20000 // ops replayed per rung at most
	ladderShards  = 16    // wtfd's default -shards
	ladderBuckets = 64    // wtfd's default -buckets
	wireBatch     = 64    // calls per span on the sub-microsecond wire and fast-read rungs
	walGroup      = 16    // appends per wal.sync barrier
	walMaxSyncs   = 200
)

type ladder struct {
	b      *bench
	tr     *tracer
	ops    []op
	vals   [][multiCmds]string // per op: the value each PUT command writes
	stm    *mvstm.STM
	maps   []*tstruct.Map
	budget time.Duration // per rung
}

// shardOf is wtfd's key-to-shard hash (FNV-1a over the key bytes).
func shardOf(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % ladderShards)
}

func (l *ladder) mapOf(key string) *tstruct.Map { return l.maps[shardOf(key)] }

// opReq is the request id the spans of op i share (0 marks spans that
// time a batch of ops or no op at all).
func opReq(i int) uint64 { return uint64(i) + 1 }

// runLadder runs every rung the workload's wtfd configuration exercises,
// spending at most budget on each.
func (b *bench) runLadder(budget time.Duration) error {
	l := &ladder{b: b, tr: b.tr, budget: budget}
	gen := newOpGen(b.w, b.seed, streamLadder, 0, 1)
	l.ops = make([]op, ladderOps)
	l.vals = make([][multiCmds]string, ladderOps)
	var buf [valLen]byte
	for i := range l.ops {
		o := &l.ops[i]
		gen.next(o)
		for j := range o.n {
			if o.kind == opPut || o.kind == opCAS || (o.kind == opMulti && o.put[j]) {
				l.vals[i][j] = string(encodeVal(buf[:], o.keys[j], 0, int32(i*multiCmds+j)))
			}
		}
	}
	l.rungWire()
	if err := l.buildStore(); err != nil {
		return err
	}
	l.rungTstruct()
	if err := l.rungMVSTM(); err != nil {
		return err
	}
	if err := l.rungCore(); err != nil {
		return err
	}
	if !b.w.durable {
		return nil
	}
	if err := l.rungWAL(); err != nil {
		return err
	}
	return l.rungPersist()
}

// each iterates the op stream until it ends or the rung's budget is spent.
func (l *ladder) each(fn func(i int, o *op) error) error {
	deadline := time.Now().Add(l.budget)
	for i := range l.ops {
		if i%64 == 0 && time.Now().After(deadline) {
			return nil
		}
		if err := fn(i, &l.ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// request builds op i's request as the generator would send it.
func (l *ladder) request(req *wire.Request, i int) {
	o := &l.ops[i]
	keys := l.b.keyStrs
	req.ID = uint32(i)
	req.Cmd = wire.Cmd{}
	req.Batch = req.Batch[:0]
	switch o.kind {
	case opGet:
		req.Op, req.Cmd = wire.OpGet, wire.Get(keys[o.keys[0]])
	case opPut:
		req.Op, req.Cmd = wire.OpPut, wire.Put(keys[o.keys[0]], []byte(l.vals[i][0]))
	case opCAS:
		req.Op, req.Cmd = wire.OpCAS, wire.CAS(keys[o.keys[0]], []byte(l.vals[i][0]), []byte(l.vals[i][0]))
	case opMulti:
		req.Op = wire.OpMulti
		for j := range o.n {
			if o.put[j] {
				req.Batch = append(req.Batch, wire.Put(keys[o.keys[j]], []byte(l.vals[i][j])))
			} else {
				req.Batch = append(req.Batch, wire.Get(keys[o.keys[j]]))
			}
		}
	}
}

// response builds the reply wtfd sends for op i: GETs return a value.
func (l *ladder) response(resp *wire.Response, i int, val []byte) {
	o := &l.ops[i]
	resp.ID = uint32(i)
	resp.Batch = resp.Batch[:0]
	resp.Result = wire.OKResult()
	switch o.kind {
	case opGet:
		resp.Op, resp.Result = wire.OpGet, wire.ValResult(val)
	case opPut:
		resp.Op = wire.OpPut
	case opCAS:
		resp.Op = wire.OpCAS
	case opMulti:
		resp.Op = wire.OpMulti
		for j := range o.n {
			if o.put[j] {
				resp.Batch = append(resp.Batch, wire.OKResult())
			} else {
				resp.Batch = append(resp.Batch, wire.ValResult(val))
			}
		}
	}
}

// rungWire times the frame codec on the workload's own frames, in batches
// of wireBatch calls per span.
func (l *ladder) rungWire() {
	var (
		reqs   [wireBatch]wire.Request
		dec    [wireBatch]wire.Request
		resps  [wireBatch]wire.Response
		rdec   [wireBatch]wire.Response
		frames [wireBatch][]byte
		val    [valLen]byte
	)
	encodeVal(val[:], 0, 0, 0)
	l.tr.timed("rung.wire", 0, 0, 0, func(root uint64) {
		deadline := time.Now().Add(l.budget)
		for base := 0; base < len(l.ops) && time.Now().Before(deadline); base += wireBatch {
			n := min(wireBatch, len(l.ops)-base)
			for i := range n {
				l.request(&reqs[i], base+i)
			}
			l.tr.timed("wire.req_encode", root, 0, int32(n), func(uint64) {
				for i := range n {
					frames[i], _ = wire.AppendRequest(frames[i][:0], &reqs[i])
				}
			})
			l.tr.timed("wire.req_decode", root, 0, int32(n), func(uint64) {
				for i := range n {
					wire.DecodeRequestInto(&dec[i], frames[i])
				}
			})
			for i := range n {
				l.response(&resps[i], base+i, val[:])
			}
			l.tr.timed("wire.resp_encode", root, 0, int32(n), func(uint64) {
				for i := range n {
					frames[i], _ = wire.AppendResponse(frames[i][:0], &resps[i])
				}
			})
			l.tr.timed("wire.resp_decode", root, 0, int32(n), func(uint64) {
				for i := range n {
					wire.DecodeResponseInto(&rdec[i], frames[i])
				}
			})
		}
	})
}

// buildStore builds wtfd's store shape in process (ladderShards maps of
// ladderBuckets buckets over one MV-STM) and preloads every key.
func (l *ladder) buildStore() error {
	l.stm = mvstm.New()
	l.maps = make([]*tstruct.Map, ladderShards)
	for i := range l.maps {
		l.maps[i] = tstruct.NewMapNamed(l.stm, fmt.Sprintf("shard%d", i), ladderBuckets)
	}
	var buf [valLen]byte
	keys := l.b.keyStrs
	for base := 0; base < len(keys); base += 256 {
		err := l.stm.Atomic(func(tx *mvstm.Txn) error {
			for k := base; k < min(base+256, len(keys)); k++ {
				l.mapOf(keys[k]).Put(tx, keys[k], string(encodeVal(buf[:], int32(k), preloadConn, 0)))
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("ladder preload: %w", err)
		}
	}
	return nil
}

// apply runs command j of op i through the map with tstruct spans under
// parent, as wtfd's store does.
func (l *ladder) apply(rw mvstm.ReadWriter, i, j int, parent uint64) {
	o := &l.ops[i]
	req := opReq(i)
	key := l.b.keyStrs[o.keys[j]]
	m := l.mapOf(key)
	switch {
	case o.kind == opGet || (o.kind == opMulti && !o.put[j]):
		l.tr.timed("tstruct.get", parent, req, 1, func(uint64) { m.Get(rw, key) })
	case o.kind == opCAS:
		var cur any
		l.tr.timed("tstruct.get", parent, req, 1, func(uint64) { cur, _ = m.Get(rw, key) })
		if cur != nil {
			l.tr.timed("tstruct.put", parent, req, 1, func(uint64) { m.Put(rw, key, l.vals[i][j]) })
		}
	default:
		l.tr.timed("tstruct.put", parent, req, 1, func(uint64) { m.Put(rw, key, l.vals[i][j]) })
	}
}

// rungTstruct times the lock-free read path, GetFast over
// mvstm.ReadLatest, for every GET of the stream.
func (l *ladder) rungTstruct() {
	var keys []string
	for i := range l.ops {
		o := &l.ops[i]
		for j := range o.n {
			if o.kind == opGet || (o.kind == opMulti && !o.put[j]) {
				keys = append(keys, l.b.keyStrs[o.keys[j]])
			}
		}
	}
	l.tr.timed("rung.tstruct", 0, 0, 0, func(root uint64) {
		deadline := time.Now().Add(l.budget)
		for base := 0; base < len(keys) && time.Now().Before(deadline); base += wireBatch {
			batch := keys[base:min(base+wireBatch, len(keys))]
			l.tr.timed("tstruct.get_fast", root, 0, int32(len(batch)), func(uint64) {
				for _, k := range batch {
					l.mapOf(k).GetFast(k)
				}
			})
		}
	})
}

// rungMVSTM runs each op as one bare MV-STM transaction: the same tstruct
// calls, then mvstm.commit (read-only ops as mvstm.ro_txn).
func (l *ladder) rungMVSTM() error {
	var err error
	l.tr.timed("rung.mvstm", 0, 0, 0, func(root uint64) {
		err = l.each(func(i int, o *op) error {
			req := opReq(i)
			name := "mvstm.txn"
			if o.kind == opGet {
				name = "mvstm.ro_txn"
			}
			var cerr error
			l.tr.timed(name, root, req, 1, func(id uint64) {
				for {
					tx := l.stm.Begin()
					for j := range o.n {
						l.apply(tx, i, j, id)
					}
					if o.kind == opGet {
						cerr = tx.Commit()
					} else {
						l.tr.timed("mvstm.commit", id, req, 1, func(uint64) { cerr = tx.Commit() })
					}
					tx.Release()
					if cerr != mvstm.ErrConflict {
						return
					}
				}
			})
			return cerr
		})
	})
	return err
}

// rungCore runs each op as a WTF-TM top-level transaction the way wtfd
// executes requests: single-key ops inline (core.single), MULTIs fanned
// out as one future per touched shard (core.atomic).
func (l *ladder) rungCore() error {
	sys := core.New(l.stm, core.Options{Ordering: core.WO, Atomicity: core.LAC})
	var err error
	l.tr.timed("rung.core", 0, 0, 0, func(root uint64) {
		err = l.each(func(i int, o *op) error {
			req := opReq(i)
			var aerr error
			if o.kind != opMulti {
				l.tr.timed("core.single", root, req, 1, func(id uint64) {
					aerr = sys.Atomic(func(tx *core.Tx) error {
						l.apply(tx, i, 0, id)
						return nil
					})
				})
				return aerr
			}
			l.tr.timed("core.atomic", root, req, 1, func(id uint64) { aerr = l.coreMulti(sys, i, id) })
			return aerr
		})
	})
	return err
}

// coreMulti is wtfd's MULTI execution: commands grouped by shard, one
// future per group (inline when the batch touches one shard), evaluated in
// submission order. A future body's tstruct spans hang under the span of
// whichever call is running it: core.submit, or core.evaluate when the
// body is re-executed at evaluation.
func (l *ladder) coreMulti(sys *core.System, i int, id uint64) error {
	o := &l.ops[i]
	req := opReq(i)
	var groups [ladderShards][]int
	var order []int
	for j := range o.n {
		sh := shardOf(l.b.keyStrs[o.keys[j]])
		if len(groups[sh]) == 0 {
			order = append(order, sh)
		}
		groups[sh] = append(groups[sh], j)
	}
	return sys.Atomic(func(tx *core.Tx) error {
		if len(order) == 1 {
			for _, j := range groups[order[0]] {
				l.apply(tx, i, j, id)
			}
			return nil
		}
		futs := make([]*core.Future, len(order))
		parents := make([]atomic.Uint64, len(order))
		for g, sh := range order {
			idxs := groups[sh]
			parent := &parents[g]
			l.tr.timed("core.submit", id, req, 1, func(sid uint64) {
				parent.Store(sid)
				futs[g] = tx.Submit(func(ftx *core.Tx) (any, error) {
					p := parent.Load()
					for _, j := range idxs {
						l.apply(ftx, i, j, p)
					}
					return nil, nil
				})
			})
		}
		for g, f := range futs {
			var err error
			l.tr.timed("core.evaluate", id, req, 1, func(eid uint64) {
				parents[g].Store(eid)
				_, err = tx.Evaluate(f)
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// rungWAL appends the stream's writes to a segmented log on this disk, as
// wtfd encodes them, with a group-commit fsync barrier every walGroup
// appends.
func (l *ladder) rungWAL() error {
	dir, err := os.MkdirTemp(l.b.tmpDir, "ladder-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncGroup})
	if err != nil {
		return err
	}
	var payload []byte
	appended, syncs := 0, 0
	l.tr.timed("rung.wal", 0, 0, 0, func(root uint64) {
		err = l.each(func(i int, o *op) error {
			req := opReq(i)
			for j := range o.n {
				if l.vals[i][j] == "" {
					continue
				}
				payload = wal.AppendPut(wal.AppendBatchHeader(payload[:0], 1), l.b.keyStrs[o.keys[j]], []byte(l.vals[i][j]))
				var aerr error
				l.tr.timed("wal.append", root, req, 1, func(uint64) { _, aerr = log.Append(payload) })
				if aerr != nil {
					return aerr
				}
				if appended++; appended%walGroup == 0 && syncs < walMaxSyncs {
					syncs++
					l.tr.timed("wal.sync", root, req, 1, func(uint64) { aerr = log.Sync() })
					if aerr != nil {
						return aerr
					}
				}
			}
			return nil
		})
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	return err
}

// rungPersist checkpoints the preloaded store with persist.Manager, one
// Checkpoint per shard, reading each shard through a snapshot transaction
// as wtfd's checkpoint source does.
func (l *ladder) rungPersist() error {
	dir, err := os.MkdirTemp(l.b.tmpDir, "ladder-persist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	m, err := persist.Open(persist.Options{
		Dir: filepath.Join(dir, "data"), Shards: ladderShards, Sync: wal.SyncGroup,
		Source: func(shard int, emit func(key string, val []byte) error) error {
			var kvs []tstruct.KV
			if err := l.stm.Atomic(func(tx *mvstm.Txn) error {
				kvs = l.maps[shard].Snapshot(tx, kvs[:0])
				return nil
			}); err != nil {
				return err
			}
			for _, kv := range kvs {
				if err := emit(kv.Key, []byte(kv.Val.(string))); err != nil {
					return err
				}
			}
			return nil
		},
		Restore: func(int, string, []byte) error { return nil },
		Apply:   func(int, uint64, []byte) error { return nil },
	})
	if err != nil {
		return err
	}
	// A checkpoint covers the log frontier; give every shard one record so
	// there is something to cover.
	payload := wal.AppendPut(wal.AppendBatchHeader(nil, 1), "ladder", []byte("x"))
	for sh := range ladderShards {
		m.Lock(sh)
		_, err = m.Append(sh, payload)
		m.Unlock(sh)
		if err != nil {
			m.Close()
			return err
		}
	}
	l.tr.timed("persist.checkpoint_all", 0, 0, 0, func(root uint64) {
		for sh := range ladderShards {
			l.tr.timed("persist.checkpoint", root, 0, 1, func(uint64) {
				if cerr := m.Checkpoint(sh); cerr != nil && err == nil {
					err = cerr
				}
			})
		}
	})
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	return err
}
