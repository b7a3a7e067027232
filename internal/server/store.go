package server

import (
	"fmt"

	"wtftm"
	"wtftm/internal/tstruct"
	"wtftm/internal/wire"
)

// store is wtfd's keyspace: a fixed set of shard-partitioned transactional
// maps over versioned boxes. Keys hash to one shard; a MULTI batch touching
// k shards fans out as k transactional futures, one per shard, so the
// per-shard work runs in parallel inside one atomic request.
//
// Each shard is a tstruct.PackedMap: a bucket version is one immutable,
// pointer-free blob of packed entries (values over tstruct.PackedInlineMax
// bytes sit out of line in a per-bucket slice), so the GC marks a few
// thousand bucket objects instead of every key and value. A committed value
// handed to a response writer can never be mutated by a later transaction —
// new values install new blobs instead. Together with the MV-STM's snapshot
// reads this makes the post-commit hand-off privatization-safe (DESIGN.md
// §7).
type store struct {
	shards []*tstruct.PackedMap
}

func newStore(stm *wtftm.STM, shards, buckets int) *store {
	st := &store{shards: make([]*tstruct.PackedMap, shards)}
	for i := range st.shards {
		// Unique per-shard box names keep recorded histories (Config.
		// Recorder) attributable: the FSG oracle must see shard 0's bucket
		// and shard 1's bucket as different variables.
		st.shards[i] = tstruct.NewPackedMapNamed(stm, fmt.Sprintf("shard%d", i), buckets)
	}
	return st
}

// shardOf maps a key to its shard (FNV-1a, inlined over the string; the
// same hash values hash/fnv produces, stable across restarts so logs and
// traces stay comparable, without the hash.Hash allocation risk on the
// zero-alloc read fast path).
func (st *store) shardOf(key string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % uint32(len(st.shards)))
}

// shardOfBytes is shardOf over a key still in its wire buffer (same FNV-1a,
// same shard assignment, no string).
func (st *store) shardOfBytes(key []byte) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % uint32(len(st.shards)))
}

// getFastBytes serves one GET against shard sh outside any transaction,
// via the map's lock-free read path (tstruct.PackedMap.GetFastBytes over
// mvstm.ReadLatest). The read loop hands the key down as the payload
// subslice it decoded, so no key string is built. ok == false means the
// retry budget was exhausted by concurrent version trims and the caller
// must fall back to a transactional read.
func (st *store) getFastBytes(sh int, key []byte) (val string, found bool, retries int, ok bool) {
	return st.shards[sh].GetFastBytes(key)
}

// apply executes one command against the store through rw (a plain MV-STM
// transaction or a futures-engine Tx — both work, which is what lets single
// ops run inline and MULTI groups run inside future bodies).
//
// CAS never writes on a mismatch, so a mismatched command contributes no
// write to its transaction: the all-or-nothing MULTI rule only needs the
// caller to abort the transaction when any result is StatusCASMismatch.
func (st *store) apply(rw wtftm.ReadWriter, c *wire.Cmd) wire.Result {
	m := st.shards[st.shardOf(c.Key)]
	switch c.Op {
	case wire.OpGet:
		v, ok := m.Get(rw, c.Key)
		if !ok {
			return wire.Result{Status: wire.StatusNotFound}
		}
		return wire.ValResult([]byte(v))
	case wire.OpPut:
		m.Put(rw, c.Key, c.Val)
		return wire.OKResult()
	case wire.OpDel:
		if !m.Delete(rw, c.Key) {
			return wire.Result{Status: wire.StatusNotFound}
		}
		return wire.OKResult()
	case wire.OpCAS:
		cur, ok := m.Get(rw, c.Key)
		if c.ExpectPresent != ok || (ok && cur != string(c.Expect)) {
			res := wire.Result{Status: wire.StatusCASMismatch}
			if ok {
				res.Val, res.HasVal = []byte(cur), true
			}
			return res
		}
		m.Put(rw, c.Key, c.Val)
		return wire.OKResult()
	default:
		return wire.ErrResult(fmt.Sprintf("server: %v is not a store command", c.Op))
	}
}
