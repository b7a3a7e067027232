package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"wtftm/internal/wire"
)

// Each connection keeps its in-flight requests in a ring indexed by request
// ID. A send that finds its slot still occupied means ringSize requests are
// outstanding: the server has fallen that far behind and the run stops.
const (
	ringBits = 14
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
)

var errBacklog = errors.New("more than 16384 requests outstanding on one connection")

// pend is one in-flight request.
type pend struct {
	state  atomic.Uint32 // 1 while in flight; publishes the fields below
	o      op
	wids   [multiCmds]int32 // ledger write id per written command
	floors [multiCmds]int32 // per read: own newest acked write id + 1
	expect int32            // CAS: expected write id + 1 (0 = preload value)
	due    int64            // scheduled send time (ns since epoch)
	sent   int64
	ph     *phase
}

// phase collects one measured interval's samples. Latencies are bucketed
// into nwin equal windows by due time, completions by completion time.
type phase struct {
	name    string
	start   int64
	winNS   int64
	nwin    int
	keepLat bool
	traced  bool
	recs    []*phaseRec // per connection
}

// phaseRec is one connection's share of a phase. Only that connection's
// reader writes the reply fields; only its sender writes sent and late.
type phaseRec struct {
	lat       [numKinds][][]int64 // [kind][window] latency from due time, ns
	doneWin   []int64
	done      int64
	userBytes int64 // key+value bytes of acknowledged writes

	sent [numKinds]int64
	late []int64 // open loop: send time minus due time, ns
}

func newPhase(name string, start int64, dur time.Duration, nwin, conns int, keepLat bool) *phase {
	ph := &phase{name: name, start: start, winNS: int64(dur) / int64(nwin), nwin: nwin, keepLat: keepLat}
	for range conns {
		r := &phaseRec{doneWin: make([]int64, nwin)}
		for k := range r.lat {
			r.lat[k] = make([][]int64, nwin)
		}
		ph.recs = append(ph.recs, r)
	}
	return ph
}

func (ph *phase) win(t int64) int {
	w := int((t - ph.start) / ph.winNS)
	return min(max(w, 0), ph.nwin-1)
}

// closedLoop is an active closed-loop phase on one connection: every reply
// lets the connection's reader send the next request from src, keeping
// window requests in flight until the source ends or until passes.
type closedLoop struct {
	src       source
	window    int64
	until     int64 // 0 = run the source to its end
	ph        *phase
	exhausted atomic.Bool
}

// loadConn is one pipelined connection to wtfd.
type loadConn struct {
	b   *bench
	idx int
	nc  net.Conn

	wmu    sync.Mutex // guards everything below it
	bw     *bufio.Writer
	nextID uint32
	req    wire.Request
	vals   [multiCmds][valLen]byte
	expBuf [valLen]byte
	frame  []byte

	ring     []pend
	inflight atomic.Int64
	closed   atomic.Pointer[closedLoop]
	stopping atomic.Bool
	done     chan struct{}
}

func dialConn(b *bench, idx int, addr string) (*loadConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial wtfd: %w", err)
	}
	c := &loadConn{
		b: b, idx: idx, nc: nc,
		bw:   bufio.NewWriterSize(nc, 64<<10),
		ring: make([]pend, ringSize),
		done: make(chan struct{}),
	}
	c.req.Batch = make([]wire.Cmd, 0, multiCmds)
	go c.readLoop(bufio.NewReaderSize(nc, 64<<10))
	return c, nil
}

// close shuts the connection and waits for its reader to exit.
func (c *loadConn) close() {
	c.stopping.Store(true)
	c.nc.Close()
	<-c.done
}

// send encodes and buffers one request; the caller holds wmu and flushes.
func (c *loadConn) send(o *op, due int64, ph *phase) error {
	b := c.b
	id := c.nextID
	p := &c.ring[id&ringMask]
	if p.state.Load() != 0 {
		return errBacklog
	}
	c.nextID++
	now := b.now()
	p.o, p.due, p.sent, p.ph = *o, due, now, ph
	if err := b.led.prepare(c.idx, p, now); err != nil {
		return err
	}

	req := &c.req
	req.ID = id
	req.Cmd = wire.Cmd{}
	req.Batch = req.Batch[:0]
	k := o.keys[0]
	key := b.keyStrs[k]
	switch o.kind {
	case opGet:
		req.Op, req.Cmd = wire.OpGet, wire.Get(key)
	case opPut:
		val := encodeVal(c.vals[0][:], k, c.idx, p.wids[0])
		if o.preload {
			val = encodeVal(c.vals[0][:], k, preloadConn, 0)
		}
		req.Op, req.Cmd = wire.OpPut, wire.Put(key, val)
	case opCAS:
		exp := encodeVal(c.expBuf[:], k, preloadConn, 0)
		if p.expect > 0 {
			exp = encodeVal(c.expBuf[:], k, c.idx, p.expect-1)
		}
		req.Op, req.Cmd = wire.OpCAS, wire.CAS(key, exp, encodeVal(c.vals[0][:], k, c.idx, p.wids[0]))
	case opMulti:
		req.Op = wire.OpMulti
		for i := range o.n {
			ki := o.keys[i]
			if o.put[i] {
				req.Batch = append(req.Batch, wire.Put(b.keyStrs[ki], encodeVal(c.vals[i][:], ki, c.idx, p.wids[i])))
			} else {
				req.Batch = append(req.Batch, wire.Get(b.keyStrs[ki]))
			}
		}
	}
	var err error
	if c.frame, err = wire.AppendRequest(c.frame[:0], req); err != nil {
		return fmt.Errorf("encode request: %w", err)
	}
	p.state.Store(1)
	c.inflight.Add(1)
	b.sent.Add(1)
	b.attempted.Add(1)
	rec := ph.recs[c.idx]
	rec.sent[o.kind]++
	return wire.WriteFrame(c.bw, c.frame)
}

// refill tops the connection up to the closed loop's window. Caller holds
// wmu.
func (c *loadConn) refill(cl *closedLoop) error {
	var o op
	for c.inflight.Load() < cl.window && !cl.exhausted.Load() {
		now := c.b.now()
		if cl.until != 0 && now >= cl.until {
			return nil
		}
		if !cl.src.next(&o) {
			cl.exhausted.Store(true)
			return nil
		}
		if err := c.send(&o, now, cl.ph); err != nil {
			return err
		}
	}
	return nil
}

func (c *loadConn) readLoop(br *bufio.Reader) {
	defer close(c.done)
	var (
		buf  []byte
		resp wire.Response
	)
	for {
		payload, err := wire.ReadFrame(br, buf)
		if err != nil {
			if !c.stopping.Load() {
				c.b.fatal(fmt.Errorf("conn %d: read: %w", c.idx, err))
			}
			return
		}
		buf = wire.RecycleFrameBuf(payload)
		if err := wire.DecodeResponseInto(&resp, payload); err != nil {
			c.b.fatal(fmt.Errorf("conn %d: decode response: %w", c.idx, err))
			return
		}
		p := &c.ring[resp.ID&ringMask]
		if p.state.Load() != 1 {
			c.b.fatal(fmt.Errorf("conn %d: response for unknown request %d", c.idx, resp.ID))
			return
		}
		c.b.complete(c, p, &resp, c.b.now())
		p.state.Store(0)
		c.inflight.Add(-1)
		if cl := c.closed.Load(); cl != nil {
			c.wmu.Lock()
			err := c.refill(cl)
			if err == nil && br.Buffered() == 0 {
				err = c.bw.Flush()
			}
			c.wmu.Unlock()
			if err != nil {
				c.b.fatal(fmt.Errorf("conn %d: send: %w", c.idx, err))
				return
			}
		}
	}
}

// complete checks one reply and records it in its phase.
func (b *bench) complete(c *loadConn, p *pend, resp *wire.Response, now int64) {
	ph := p.ph
	rec := ph.recs[c.idx]
	rec.done++
	rec.doneWin[ph.win(now)]++
	if err := b.checkReply(c, p, resp, now, rec); err != nil {
		b.fail(err)
		return
	}
	if ph.keepLat {
		w := ph.win(p.due)
		rec.lat[p.o.kind][w] = append(rec.lat[p.o.kind][w], now-p.due)
	}
	if ph.traced && b.tr != nil {
		b.tr.add(span{id: b.tr.newID(), req: uint64(c.idx)<<32 | uint64(resp.ID),
			name: "client." + p.o.kind.String(), start: p.sent, end: now, n: 1})
	}
}

// mismatch is a reply that breaks the store's contract (as opposed to an
// error or refusal status, which only counts as failed).
type mismatch struct{ error }

func mismatchf(format string, args ...any) error {
	return mismatch{fmt.Errorf(format, args...)}
}

func statusErr(kind opKind, st wire.Status, val []byte) error {
	if st == wire.StatusErr || st == wire.StatusBusy || st == wire.StatusUnavailable {
		return fmt.Errorf("%v answered %v: %s", kind, st, val)
	}
	return mismatchf("%v answered unexpected status %v", kind, st)
}

// checkReply validates a reply against the ledger and, for writes, records
// the acknowledgement.
func (b *bench) checkReply(c *loadConn, p *pend, resp *wire.Response, now int64, rec *phaseRec) error {
	o := &p.o
	res := &resp.Result
	k := o.keys[0]
	switch o.kind {
	case opGet:
		if res.Status != wire.StatusOK {
			return statusErr(o.kind, res.Status, res.Val)
		}
		var err error
		if o.readback {
			err = b.led.checkDurable(int(k)%b.nconns, k, res.Val)
		} else {
			err = b.led.checkRead(c.idx, k, p.floors[0], res.Val)
		}
		if err != nil {
			return mismatch{err}
		}
	case opPut, opCAS:
		if res.Status == wire.StatusCASMismatch {
			return mismatchf("CAS of key %d on conn %d failed against its own last write", k, c.idx)
		}
		if res.Status != wire.StatusOK {
			return statusErr(o.kind, res.Status, res.Val)
		}
		if !o.preload {
			b.led.ack(c.idx, p, now)
			rec.userBytes += int64(len(b.keyStrs[k]) + valLen)
		}
	case opMulti:
		if res.Status != wire.StatusOK {
			return statusErr(o.kind, res.Status, res.Val)
		}
		if len(resp.Batch) != o.n {
			return mismatchf("MULTI answered %d results for %d commands", len(resp.Batch), o.n)
		}
		for i := range o.n {
			if err := b.checkMultiCmd(c, p, resp.Batch, i); err != nil {
				return err
			}
		}
		b.led.ack(c.idx, p, now)
		for i := range o.n {
			if o.put[i] {
				rec.userBytes += int64(len(b.keyStrs[o.keys[i]]) + valLen)
			}
		}
	}
	return nil
}

// checkMultiCmd checks command i of a MULTI. A GET after a PUT to the same
// key in the batch must see that PUT; any other GET must see a state from
// before the batch, never one of the batch's own later writes.
func (b *bench) checkMultiCmd(c *loadConn, p *pend, results []wire.Result, i int) error {
	o := &p.o
	res := &results[i]
	k := o.keys[i]
	if o.put[i] {
		if res.Status != wire.StatusOK {
			return mismatchf("MULTI PUT of key %d answered %v in an applied batch", k, res.Status)
		}
		return nil
	}
	if res.Status != wire.StatusOK {
		return mismatchf("MULTI GET of key %d answered %v", k, res.Status)
	}
	for j := i - 1; j >= 0; j-- {
		if o.put[j] && o.keys[j] == k {
			var want [valLen]byte
			if string(res.Val) != string(encodeVal(want[:], k, c.idx, p.wids[j])) {
				return mismatchf("MULTI GET of key %d did not see the batch's own earlier PUT", k)
			}
			return nil
		}
	}
	if _, c2, w2, ok := decodeVal(res.Val); ok && c2 == c.idx {
		for j := i + 1; j < o.n; j++ {
			if o.put[j] && p.wids[j] == w2 {
				return mismatchf("MULTI GET of key %d saw the batch's own later PUT", k)
			}
		}
	}
	if err := b.led.checkRead(c.idx, k, p.floors[i], res.Val); err != nil {
		return mismatch{err}
	}
	return nil
}

// runOpen drives an open-loop phase: each connection follows its own
// seeded Poisson schedule at rate/conns, independent of replies, and every
// latency is timed from the request's due time. One sender goroutine paces
// all connections with nanosleep on a thread of its own: Go's timers wake
// up to a millisecond late on a small VM. Where permitted the thread runs
// SCHED_FIFO, because a CFS thread woken while wtfd keeps both CPUs busy
// can wait milliseconds for one; that wait would be the generator's, not
// wtfd's, yet it shows up in every latency timed from the due time.
func (b *bench) runOpen(ph *phase, gens []*opGen, rate float64, dur time.Duration) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const prSetTimerslack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	defer syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 0, 0) // back to the default slack
	if b.realtime {
		restore, err := setFIFO()
		if err != nil {
			return err
		}
		defer restore()
	}
	end := ph.start + int64(dur)
	per := rate / float64(len(b.conns))
	due := make([]int64, len(b.conns))
	for i, g := range gens {
		due[i] = ph.start + g.gap(per)
		// Room for the phase's sends plus slack, so appending never copies.
		ph.recs[i].late = make([]int64, 0, int(per*dur.Seconds()*1.2)+1024)
	}
	var o op
	dirty := make([]bool, len(b.conns))
	for {
		if err := b.firstErr(); err != nil {
			return err
		}
		now := b.now()
		next, pending := end, false
		for i, c := range b.conns {
			if due[i] >= end {
				continue
			}
			pending = true
			if due[i] <= now {
				c.wmu.Lock()
				for due[i] <= now && due[i] < end {
					gens[i].next(&o)
					if err := c.send(&o, due[i], ph); err != nil {
						c.wmu.Unlock()
						return fmt.Errorf("open loop: %w", err)
					}
					rec := ph.recs[i]
					rec.late = append(rec.late, now-due[i])
					due[i] += gens[i].gap(per)
				}
				c.wmu.Unlock()
				dirty[i] = true
			}
			next = min(next, due[i])
		}
		for i, c := range b.conns {
			if dirty[i] {
				c.wmu.Lock()
				err := c.bw.Flush()
				c.wmu.Unlock()
				if err != nil {
					return fmt.Errorf("open loop: flush: %w", err)
				}
				dirty[i] = false
			}
		}
		if !pending {
			break
		}
		if d := next - b.now(); d > 0 {
			// A raw syscall keeps this goroutine's P across the sleep: a
			// plain one lets the scheduler hand the P to another goroutine,
			// and getting one back after waking can take milliseconds.
			ts := syscall.NsecToTimespec(d)
			syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
		}
	}
	return b.drain(end)
}

// runClosed drives a closed-loop phase with window requests in flight per
// connection, until `until` (ns since epoch) or, when until is 0, until
// every connection's source is exhausted.
func (b *bench) runClosed(ph *phase, srcs []source, window int, until int64) error {
	loops := make([]*closedLoop, len(b.conns))
	for i, c := range b.conns {
		cl := &closedLoop{src: srcs[i], window: int64(window), until: until, ph: ph}
		loops[i] = cl
		c.closed.Store(cl)
		c.wmu.Lock()
		err := c.refill(cl)
		if err == nil {
			err = c.bw.Flush()
		}
		c.wmu.Unlock()
		if err != nil {
			return fmt.Errorf("closed loop: %w", err)
		}
	}
	defer func() {
		for _, c := range b.conns {
			c.closed.Store(nil)
		}
	}()
	if until != 0 {
		for b.now() < until {
			if err := b.firstErr(); err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
		}
		return b.drain(until)
	}
	for {
		if err := b.firstErr(); err != nil {
			return err
		}
		done := true
		for i, c := range b.conns {
			if !loops[i].exhausted.Load() || c.inflight.Load() != 0 {
				done = false
			}
		}
		if done {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}

// drainTimeout bounds how long replies may trail the end of a phase;
// requests still unanswered then count as timed out and stop the run.
const drainTimeout = 10 * time.Second

// drain waits until every connection has no request in flight.
func (b *bench) drain(end int64) error {
	deadline := end + int64(drainTimeout)
	for {
		if err := b.firstErr(); err != nil {
			return err
		}
		var out int64
		for _, c := range b.conns {
			out += c.inflight.Load()
		}
		if out == 0 {
			return nil
		}
		if b.now() > deadline {
			b.failed.Add(out)
			return fmt.Errorf("%d requests unanswered %v after the phase ended", out, drainTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// setFIFO moves the calling thread, which must be locked to its goroutine,
// to SCHED_FIFO at the lowest real-time priority. restore moves it back to
// SCHED_OTHER.
func setFIFO() (restore func(), err error) {
	const schedOther, schedFIFO = 0, 1
	set := func(policy, prio int32) syscall.Errno {
		param := prio
		_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(syscall.Gettid()), uintptr(policy), uintptr(unsafe.Pointer(&param)))
		return e
	}
	if e := set(schedFIFO, 1); e != 0 {
		return nil, fmt.Errorf("sched_setscheduler SCHED_FIFO: %w", e)
	}
	return func() { set(schedOther, 0) }, nil
}

// probeFIFO reports whether this process may run a thread SCHED_FIFO.
func probeFIFO() bool {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	restore, err := setFIFO()
	if err != nil {
		return false
	}
	restore()
	return true
}
