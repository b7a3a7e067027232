package main

import (
	"fmt"
	"sync/atomic"
)

// Every value the generator writes is valLen bytes that name their own
// origin: 'K' + 5 hex digits of key, 'C' + 2 hex digits of connection,
// 'W' + 8 hex digits of write id, then filler derived from those fields.
// A reply value therefore says which write produced it, and any corruption
// breaks the filler check.
const (
	preloadConn = 0xff // connection code of preload values (write id 0)
	valHeader   = 18
)

const hexDigits = "0123456789abcdef"

func putHex(dst []byte, v uint32) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = hexDigits[v&15]
		v >>= 4
	}
}

func getHex(src []byte) (uint32, bool) {
	var v uint32
	for _, c := range src {
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

func fillByte(key int32, conn int, wid int32, i int) byte {
	return 'a' + byte((int(key)+conn+3*int(wid)+7*i)%26)
}

// encodeVal writes the value of write wid by connection conn to key into
// dst (which must hold valLen bytes) and returns it.
func encodeVal(dst []byte, key int32, conn int, wid int32) []byte {
	dst = dst[:valLen]
	dst[0] = 'K'
	putHex(dst[1:6], uint32(key))
	dst[6] = 'C'
	putHex(dst[7:9], uint32(conn))
	dst[9] = 'W'
	putHex(dst[10:18], uint32(wid))
	for i := valHeader; i < valLen; i++ {
		dst[i] = fillByte(key, conn, wid, i)
	}
	return dst
}

// decodeVal parses a value written by encodeVal.
func decodeVal(v []byte) (key int32, conn int, wid int32, ok bool) {
	if len(v) != valLen || v[0] != 'K' || v[6] != 'C' || v[9] != 'W' {
		return 0, 0, 0, false
	}
	k, ok1 := getHex(v[1:6])
	c, ok2 := getHex(v[7:9])
	w, ok3 := getHex(v[10:18])
	if !ok1 || !ok2 || !ok3 {
		return 0, 0, 0, false
	}
	key, conn, wid = int32(k), int(c), int32(w)
	for i := valHeader; i < valLen; i++ {
		if v[i] != fillByte(key, conn, wid, i) {
			return 0, 0, 0, false
		}
	}
	return key, conn, wid, true
}

// ledger records every write the generator issued and when it was
// acknowledged, and checks read replies against that record. It takes no
// lock: a connection's sending goroutine is the only writer of its write
// records, its reader the only writer of their acks, and other connections
// only read them. A lock shared with the open-loop sender would let any
// reader that the OS preempts inside it stall the send schedule.
type ledger struct {
	conns []*connLedger
}

// Write records live in fixed-size chunks published through atomic
// pointers, so readers never race with a growing slice.
const (
	chunkBits = 16
	chunkSize = 1 << chunkBits
	maxChunks = 1 << 12 // 2^28 writes per connection
)

type writeChunk struct {
	key  [chunkSize]atomic.Int32 // key of each write
	sent [chunkSize]atomic.Int64 // issue time (ns since the benchmark epoch)
	ack  [chunkSize]atomic.Int64 // ack time; 0 while unacknowledged
}

// connLedger is one connection's write history. Write ids are per
// connection and dense.
type connLedger struct {
	chunks [maxChunks]atomic.Pointer[writeChunk]
	n      atomic.Int32 // writes issued
	// Per key: newest acknowledged and newest issued write id, plus one
	// (0 = none: the key still holds its preload value as far as this
	// connection's writes go).
	lastAck    []atomic.Int32
	lastIssued []int32 // sending goroutine only
}

func newLedger(conns, keys int) *ledger {
	l := &ledger{conns: make([]*connLedger, conns)}
	for i := range l.conns {
		l.conns[i] = &connLedger{lastAck: make([]atomic.Int32, keys), lastIssued: make([]int32, keys)}
	}
	return l
}

// rec returns write wid's record slot; wid must have been issued.
func (cl *connLedger) rec(wid int32) (*writeChunk, int) {
	return cl.chunks[wid>>chunkBits].Load(), int(wid & (chunkSize - 1))
}

// issue records a new write to key and returns its id.
func (cl *connLedger) issue(key int32, now int64) (int32, error) {
	wid := cl.n.Load()
	ci := int(wid >> chunkBits)
	if ci >= maxChunks {
		return 0, fmt.Errorf("more than %d writes on one connection", maxChunks*chunkSize)
	}
	if cl.chunks[ci].Load() == nil {
		cl.chunks[ci].Store(new(writeChunk))
	}
	ch, i := cl.chunks[ci].Load(), int(wid&(chunkSize-1))
	ch.key[i].Store(key)
	ch.sent[i].Store(now)
	cl.n.Store(wid + 1)
	cl.lastIssued[key] = wid + 1
	return wid, nil
}

// prepare assigns write ids to p's writes and records, per read, the
// connection's newest acknowledged write to that key: the floor its reply
// may not fall below. A CAS expects the connection's newest issued value.
func (l *ledger) prepare(c int, p *pend, now int64) error {
	cl := l.conns[c]
	o := &p.o
	if o.preload || o.readback {
		return nil
	}
	for i := range o.n {
		k := o.keys[i]
		write := o.kind == opPut || o.kind == opCAS || (o.kind == opMulti && o.put[i])
		if !write {
			p.floors[i] = cl.lastAck[k].Load()
			continue
		}
		if o.kind == opCAS {
			p.expect = cl.lastIssued[k]
		}
		wid, err := cl.issue(k, now)
		if err != nil {
			return err
		}
		p.wids[i] = wid
	}
	return nil
}

// ack records that p's writes were acknowledged at now.
func (l *ledger) ack(c int, p *pend, now int64) {
	cl := l.conns[c]
	o := &p.o
	for i := range o.n {
		if o.kind == opGet || (o.kind == opMulti && !o.put[i]) {
			continue
		}
		wid := p.wids[i]
		ch, j := cl.rec(wid)
		ch.ack[j].Store(now)
		if k := o.keys[i]; cl.lastAck[k].Load() < wid+1 {
			cl.lastAck[k].Store(wid + 1)
		}
	}
}

// issuedTo reports whether write wid of cl exists and was to key.
func (cl *connLedger) issuedTo(wid, key int32) bool {
	if wid < 0 || wid >= cl.n.Load() {
		return false
	}
	ch, i := cl.rec(wid)
	return ch.key[i].Load() == key
}

// checkRead checks a read of key by connection c whose floor (newest own
// acknowledged write id + 1 when the read was issued) is floor. The value
// must have been written to key and must be no older than that own write.
// Writes are ordered only by real time: one acknowledged before the own
// write was even issued is older, so the preload value or any such write
// (of this connection or another) fails. Two MULTIs of one connection may
// run on different executors, so issue order alone orders nothing.
func (l *ledger) checkRead(c int, key, floor int32, val []byte) error {
	k2, c2, w2, ok := decodeVal(val)
	if !ok || k2 != key {
		return fmt.Errorf("read of key %d returned a value not written to it (%.18q)", key, val)
	}
	if c2 == preloadConn {
		if w2 != 0 {
			return fmt.Errorf("read of key %d returned a malformed preload value", key)
		}
		if floor > 0 {
			return fmt.Errorf("read of key %d on conn %d returned the preload value after its own acknowledged write %d", key, c, floor-1)
		}
		return nil
	}
	if c2 >= len(l.conns) {
		return fmt.Errorf("read of key %d returned a value from unknown conn %d", key, c2)
	}
	cl2 := l.conns[c2]
	if !cl2.issuedTo(w2, key) {
		return fmt.Errorf("read of key %d returned write %d of conn %d, which was never issued to that key", key, w2, c2)
	}
	if floor == 0 {
		return nil
	}
	own := floor - 1
	ch2, i2 := cl2.rec(w2)
	ch, i := l.conns[c].rec(own)
	if a := ch2.ack[i2].Load(); a != 0 && a < ch.sent[i].Load() {
		return fmt.Errorf("read of key %d on conn %d returned write %d of conn %d, acknowledged before its own write %d was issued", key, c, w2, c2, own)
	}
	return nil
}

// checkDurable checks a key read back after a crash restart: it must hold
// its owner's last acknowledged value or a later issued one (only workloads
// with owned writes are checked, so the owner is the key's only writer and
// its single-key writes apply in issue order).
func (l *ledger) checkDurable(owner int, key int32, val []byte) error {
	k2, c2, w2, ok := decodeVal(val)
	if !ok || k2 != key {
		return fmt.Errorf("recovered key %d holds a value not written to it (%.18q)", key, val)
	}
	cl := l.conns[owner]
	floor := cl.lastAck[key].Load()
	switch {
	case c2 == preloadConn && w2 == 0:
		if floor > 0 {
			return fmt.Errorf("recovered key %d lost acknowledged write %d (holds the preload value)", key, floor-1)
		}
	case c2 != owner || !cl.issuedTo(w2, key):
		return fmt.Errorf("recovered key %d holds write %d of conn %d, which its owner never issued", key, w2, c2)
	case w2 < floor-1:
		return fmt.Errorf("recovered key %d lost acknowledged write %d (holds older write %d)", key, floor-1, w2)
	}
	return nil
}
