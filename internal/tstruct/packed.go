package tstruct

import (
	"fmt"
	"hash/maphash"
	"unsafe"

	"wtftm/internal/mvstm"
)

// PackedInlineMax is the longest value PackedMap stores inside a bucket's
// packed blob. Longer values live out of line in the bucket's big slice, so
// a write to the bucket copies their headers, never their bytes.
const PackedInlineMax = 256

// PackedMap is a transactional string→bytes hash map whose bucket versions
// hold no per-entry objects. Each bucket box holds one immutable
// *packedBucket: a blob of entries
//
//	uvarint klen | key | uvarint vfield | value
//
// where vfield <= PackedInlineMax is the length of the inline value that
// follows, and vfield > PackedInlineMax refers to big[vfield-PackedInlineMax-1]
// with no value bytes following. The blob is a pointer-free byte array, so
// the garbage collector never scans it: a map of n keys keeps O(buckets)
// pointer-bearing objects live instead of O(n), and GC mark cost scales with
// that count. The big indices are dense; removing an out-of-line value
// re-encodes the bucket to renumber them.
//
// Every write builds a new blob and installs it as a new box version;
// committed blobs are never mutated, so the values Get and GetFast return
// (substrings of a blob, or big entries) stay valid and immutable for as
// long as the caller holds them. There is no size box, so new-key inserts
// into different buckets never conflict.
type PackedMap struct {
	stm     *mvstm.STM
	buckets []*mvstm.VBox // each holds a *packedBucket
	seed    maphash.Seed
}

type packedBucket struct {
	blob string   // packed entries, see PackedMap
	big  []string // out-of-line values, indexed from the blob
}

var emptyBucket = &packedBucket{}

// NewPackedMapNamed creates a packed map with the given bucket count
// (rounded up to 1). Box names are "<name>.b<i>", as for NewMapNamed.
func NewPackedMapNamed(stm *mvstm.STM, name string, buckets int) *PackedMap {
	if buckets < 1 {
		buckets = 1
	}
	m := &PackedMap{stm: stm, buckets: make([]*mvstm.VBox, buckets), seed: maphash.MakeSeed()}
	for i := range m.buckets {
		m.buckets[i] = stm.NewBoxNamed(fmt.Sprintf("%s.b%d", name, i), emptyBucket)
	}
	return m
}

func (m *PackedMap) bucket(key string) *mvstm.VBox {
	return m.buckets[maphash.String(m.seed, key)%uint64(len(m.buckets))]
}

// entry is one decoded blob entry; blob[start:end] is all of it.
type entry struct {
	start, end int
	key        string
	inline     string // the value, when ref < 0
	ref        int    // index into big, or -1
}

// uvarint decodes the unsigned varint at s[i:], returning it and the offset
// just past it. Blobs are only built by this file, so they are well formed.
func uvarint(s string, i int) (uint64, int) {
	if b := s[i]; b < 0x80 { // every key and inline length under 128
		return uint64(b), i + 1
	}
	var x uint64
	for shift := uint(0); ; shift += 7 {
		b := s[i]
		i++
		if b < 0x80 {
			return x | uint64(b)<<shift, i
		}
		x |= uint64(b&0x7f) << shift
	}
}

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

func appendUvarint(b []byte, x uint64) []byte {
	for ; x >= 0x80; x >>= 7 {
		b = append(b, byte(x)|0x80)
	}
	return append(b, byte(x))
}

// entrySize is the encoded size of an entry holding val inline (ref < 0)
// or referring to big[ref].
func entrySize(key string, vlen, ref int) int {
	n := uvarintLen(uint64(len(key))) + len(key)
	if ref >= 0 {
		return n + uvarintLen(PackedInlineMax+1+uint64(ref))
	}
	return n + uvarintLen(uint64(vlen)) + vlen
}

// appendEntry encodes an entry holding val inline (ref < 0) or referring to
// big[ref] (val unused).
func appendEntry[V string | []byte](b []byte, key string, val V, ref int) []byte {
	b = appendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	if ref >= 0 {
		return appendUvarint(b, PackedInlineMax+1+uint64(ref))
	}
	b = appendUvarint(b, uint64(len(val)))
	return append(b, val...)
}

// seal turns a finished entry buffer into a bucket. The buffer is never
// written again, so the blob aliases it instead of copying it.
func seal(buf []byte, big []string) *packedBucket {
	if len(buf) == 0 {
		return emptyBucket
	}
	return &packedBucket{blob: unsafe.String(unsafe.SliceData(buf), len(buf)), big: big}
}

// next decodes the entry starting at blob[i].
func (p *packedBucket) next(i int) entry {
	e := entry{start: i, ref: -1}
	kl, i := uvarint(p.blob, i)
	e.key = p.blob[i : i+int(kl)]
	vf, i := uvarint(p.blob, i+int(kl))
	if vf > PackedInlineMax {
		e.ref = int(vf - PackedInlineMax - 1)
		e.end = i
		return e
	}
	e.inline = p.blob[i : i+int(vf)]
	e.end = i + int(vf)
	return e
}

func (p *packedBucket) value(e entry) string {
	if e.ref >= 0 {
		return p.big[e.ref]
	}
	return e.inline
}

// find returns key's entry, if present. It skips non-matching entries
// without decoding them fully: this scan is the read path's inner loop.
func (p *packedBucket) find(key string) (entry, bool) {
	for i := 0; i < len(p.blob); {
		kl, j := uvarint(p.blob, i)
		if ke := j + int(kl); p.blob[j:ke] == key {
			return p.next(i), true
		} else if vf, j := uvarint(p.blob, ke); vf > PackedInlineMax {
			i = j
		} else {
			i = j + int(vf)
		}
	}
	return entry{}, false
}

// packedBuilder re-encodes entries into a fresh bucket, renumbering the
// out-of-line values densely as it goes.
type packedBuilder struct {
	buf []byte
	big []string
}

// add appends (key, val); a long val is shared into big, not copied.
func (w *packedBuilder) add(key, val string) {
	if len(val) > PackedInlineMax {
		w.buf = appendEntry(w.buf, key, "", len(w.big))
		w.big = append(w.big, val)
		return
	}
	w.buf = appendEntry(w.buf, key, val, -1)
}

// copyEntry re-encodes entry e of p.
func (w *packedBuilder) copyEntry(p *packedBucket, e entry) {
	if e.ref >= 0 {
		w.add(e.key, p.big[e.ref])
		return
	}
	w.buf = append(w.buf, p.blob[e.start:e.end]...)
}

// without returns p minus entry skip, with big renumbered.
func (p *packedBucket) without(skip entry) *packedBucket {
	w := packedBuilder{buf: make([]byte, 0, len(p.blob)-(skip.end-skip.start))}
	for i := 0; i < len(p.blob); {
		e := p.next(i)
		if e.start != skip.start {
			w.copyEntry(p, e)
		}
		i = e.end
	}
	return seal(w.buf, w.big)
}

// replace returns p with blob[start:end] replaced by (key, val)'s entry —
// inline when ref < 0, else referring to big[ref] — over the given big.
func (p *packedBucket) replace(start, end int, key string, val []byte, ref int, big []string) *packedBucket {
	buf := make([]byte, 0, len(p.blob)-(end-start)+entrySize(key, len(val), ref))
	buf = append(buf, p.blob[:start]...)
	buf = appendEntry(buf, key, val, ref)
	buf = append(buf, p.blob[end:]...)
	return seal(buf, big)
}

// put returns p with key set to a copy of val, and whether key was new.
func (p *packedBucket) put(key string, val []byte) (*packedBucket, bool) {
	e, found := p.find(key)
	if !found {
		e = entry{start: len(p.blob), end: len(p.blob), ref: -1}
	}
	large := len(val) > PackedInlineMax
	switch {
	case e.ref >= 0 && large:
		// Same slot, same header: share the blob, copy only the slot array.
		big := append([]string(nil), p.big...)
		big[e.ref] = string(val)
		return &packedBucket{blob: p.blob, big: big}, false
	case e.ref >= 0:
		// An out-of-line value goes away: renumber, then append inline.
		q := p.without(e)
		return q.replace(len(q.blob), len(q.blob), key, val, -1, q.big), false
	case large:
		big := make([]string, len(p.big), len(p.big)+1)
		copy(big, p.big)
		big = append(big, string(val))
		return p.replace(e.start, e.end, key, nil, len(p.big), big), !found
	default:
		return p.replace(e.start, e.end, key, val, -1, p.big), !found
	}
}

// Get returns the value for key and whether it is present. The value is
// immutable and stays valid after the transaction ends.
func (m *PackedMap) Get(tx mvstm.ReadWriter, key string) (string, bool) {
	p := tx.Read(m.bucket(key)).(*packedBucket)
	e, found := p.find(key)
	if !found {
		return "", false
	}
	return p.value(e), true
}

// GetFast returns the value for key at the current commit clock without a
// transaction, via mvstm.ReadLatest on the key's bucket; retries and ok
// follow Map.GetFast's contract. Bucket versions are immutable, so scanning
// one outside any transaction is safe.
func (m *PackedMap) GetFast(key string) (val string, found bool, retries int, ok bool) {
	v, retries, ok := m.stm.ReadLatest(m.bucket(key))
	if !ok {
		return "", false, retries, false
	}
	p := v.(*packedBucket)
	e, found := p.find(key)
	if !found {
		return "", false, retries, true
	}
	return p.value(e), true, retries, true
}

// GetFastBytes is GetFast for a key that is still a byte slice in its wire
// buffer. The key is viewed as a string only for the duration of the call
// (maphash.String over it equals maphash.Bytes), so the caller materializes
// no key string and the serving read path stays allocation-free.
func (m *PackedMap) GetFastBytes(key []byte) (val string, found bool, retries int, ok bool) {
	return m.GetFast(unsafe.String(unsafe.SliceData(key), len(key)))
}

// Put stores a copy of val under key, returning whether the key was new.
func (m *PackedMap) Put(tx mvstm.ReadWriter, key string, val []byte) bool {
	b := m.bucket(key)
	next, added := tx.Read(b).(*packedBucket).put(key, val)
	tx.Write(b, next)
	return added
}

// Delete removes key, returning whether it was present.
func (m *PackedMap) Delete(tx mvstm.ReadWriter, key string) bool {
	b := m.bucket(key)
	p := tx.Read(b).(*packedBucket)
	e, found := p.find(key)
	switch {
	case !found:
		return false
	case e.ref >= 0:
		tx.Write(b, p.without(e))
	default:
		buf := make([]byte, 0, len(p.blob)-(e.end-e.start))
		buf = append(append(buf, p.blob[:e.start]...), p.blob[e.end:]...)
		tx.Write(b, seal(buf, p.big))
	}
	return true
}

// PackedKV is one key-value pair of PackedMap's Snapshot/Restore bulk
// transfer.
type PackedKV struct {
	Key, Val string
}

// Snapshot appends every entry to dst (bucket order) and returns it. It
// reads every bucket, so the enclosing transaction observes one consistent
// cut of the map — what a durability checkpoint needs. Keys and values
// alias the immutable bucket blobs; nothing is copied.
func (m *PackedMap) Snapshot(tx mvstm.ReadWriter, dst []PackedKV) []PackedKV {
	for _, b := range m.buckets {
		p := tx.Read(b).(*packedBucket)
		for i := 0; i < len(p.blob); {
			e := p.next(i)
			dst = append(dst, PackedKV{Key: e.key, Val: p.value(e)})
			i = e.end
		}
	}
	return dst
}

// Restore bulk-inserts kvs (later duplicates win). Each touched bucket is
// re-encoded once, where n repeated Puts would copy the growing bucket n
// times — the difference between O(n) and O(n²) recovery. Long values are
// shared with kvs, not copied.
func (m *PackedMap) Restore(tx mvstm.ReadWriter, kvs []PackedKV) {
	if len(kvs) == 0 {
		return
	}
	last := make(map[string]int, len(kvs)) // key -> index of its winning kv
	batches := make(map[*mvstm.VBox][]int) // bucket -> first index of each of its keys
	var order []*mvstm.VBox
	for i, kv := range kvs {
		if _, dup := last[kv.Key]; !dup {
			b := m.bucket(kv.Key)
			if batches[b] == nil {
				order = append(order, b)
			}
			batches[b] = append(batches[b], i)
		}
		last[kv.Key] = i
	}
	for _, b := range order {
		p := tx.Read(b).(*packedBucket)
		w := packedBuilder{buf: make([]byte, 0, len(p.blob)+64*len(batches[b]))} // a guess; append grows it
		for i := 0; i < len(p.blob); {
			e := p.next(i)
			if _, replaced := last[e.key]; !replaced {
				w.copyEntry(p, e)
			}
			i = e.end
		}
		for _, i := range batches[b] {
			kv := kvs[last[kvs[i].Key]]
			w.add(kv.Key, kv.Val)
		}
		tx.Write(b, seal(w.buf, w.big))
	}
}
