// Command wtfbed is wtfd's benchmark: it spawns the wtfd binary as its own
// process, drives one workload against it from this single generator
// process (two pipelined connections), checks every reply, and prints each
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (normally through run.sh, which builds both binaries first):
//
//	wtfbed -wtfd <binary> -work <dir> -root <checkout> \
//	       --workload kv-read95|multi8-skew|durable-write --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) sets wtfd up five times and reports the
// median set-up time, then measures an open-loop phase at the workload's
// fixed offered rate (latency timed from each request's due time) and a
// closed-loop saturation phase with a fixed in-flight window. It prints the
// end-to-end metrics. A traced run (--trace 1) sets up once, records spans
// around every client request and around calls into each module's public
// API (the in-process "ladder"), reads wtfd's own counters and stage
// histograms through STATS at each phase boundary, writes the spans to
// <work>/traces/, and prints the per-layer metrics.
//
// A reply that breaks the store's contract, a durability loss after the
// kill -9 restart of durable-write, or a STATS request count that differs
// from what the generator sent fails the run (exit 1). A run in which the
// generator fell behind its schedule, or in which a reported percentile has
// fewer than ten samples beyond it, is invalid and reports nothing (exit 3).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wtftm/internal/client"
	"wtftm/internal/wire"
)

// Op-stream identities: every phase draws from its own seeded stream.
const (
	streamWarm = iota + 1
	streamOpen
	streamOpenTraced
	streamSat
	streamLadder
)

const (
	nconns       = 2 // connections, one per CPU of the reference host
	setupRuns    = 5 // untraced runs set wtfd up this many times
	preloadDepth = 128
	warmup       = 500 * time.Millisecond
	// Phases are cut into windows of about windowLen; a reported
	// percentile or rate is the median of its per-window values, which
	// keeps one stall from moving a whole run's figure.
	windowLen = 2 * time.Second
	// An open-loop phase fell behind its schedule, and is invalid, when the
	// sender's median lateness exceeds maxLateP50 (it runs late as a rule)
	// or its p99 lateness exceeds maxLateP99 (a backlog, not a scheduling
	// hiccup of the shared CPUs).
	maxLateP50 = time.Millisecond
	maxLateP99 = 20 * time.Millisecond
)

type bench struct {
	w                   *workload
	seed                uint64
	seconds             int
	wtfdBin, work, root string
	tmpDir              string
	nconns              int
	epoch               time.Time
	tr                  *tracer
	keyStrs             []string
	realtime            bool // the open-loop sender runs SCHED_FIFO

	// The current wtfd instance.
	d       *daemon
	led     *ledger
	conns   []*loadConn
	ctl     *client.Client
	dataDir string
	sent    atomic.Int64 // requests sent to this instance, STATS included

	attempted, failed atomic.Int64

	errMu      sync.Mutex
	fatalErr   error
	mismatches int64
	errSamples []string
}

func (b *bench) now() int64 { return int64(time.Since(b.epoch)) }

// fail counts one failed request; a contract mismatch also makes the run
// incorrect.
func (b *bench) fail(err error) {
	b.failed.Add(1)
	b.errMu.Lock()
	defer b.errMu.Unlock()
	var mm mismatch
	if errors.As(err, &mm) {
		b.mismatches++
	}
	if len(b.errSamples) < 5 {
		b.errSamples = append(b.errSamples, err.Error())
	}
}

// fatal stops the run at the next phase check.
func (b *bench) fatal(err error) {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	if b.fatalErr == nil {
		b.fatalErr = err
	}
}

func (b *bench) firstErr() error {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.fatalErr
}

func (b *bench) gens(stream uint64) []*opGen {
	out := make([]*opGen, b.nconns)
	for i := range out {
		out[i] = newOpGen(b.w, b.seed, stream, i, b.nconns)
	}
	return out
}

func asSources[T source](xs []T) []source {
	out := make([]source, len(xs))
	for i, x := range xs {
		out[i] = x
	}
	return out
}

func (b *bench) keySources(readback bool) []source {
	out := make([]source, b.nconns)
	for i := range out {
		out[i] = &keySource{keys: b.w.keys, conn: i, nconns: b.nconns, readback: readback}
	}
	return out
}

// connect dials the load connections and the STATS control client to the
// current instance.
func (b *bench) connect() error {
	b.conns = nil
	b.sent.Store(0)
	for i := range b.nconns {
		c, err := dialConn(b, i, b.d.addr)
		if err != nil {
			return err
		}
		b.conns = append(b.conns, c)
	}
	b.ctl = client.New(client.Options{Addr: b.d.addr, Conns: 1})
	return nil
}

// start spawns wtfd, preloads every key and warms up with the workload
// itself; the returned duration is the set-up time.
func (b *bench) start(dataDir string) (time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(b.wtfdBin, b.w.wtfdArgs(dataDir))
	if err != nil {
		return 0, err
	}
	b.d, b.dataDir = d, dataDir
	b.led = newLedger(b.nconns, b.w.keys)
	if err := b.connect(); err != nil {
		return 0, err
	}
	ph := newPhase("preload", b.now(), time.Second, 1, b.nconns, false)
	if err := b.runClosed(ph, b.keySources(false), preloadDepth, 0); err != nil {
		return 0, fmt.Errorf("preload: %w", err)
	}
	ph = newPhase("warmup", b.now(), warmup, 1, b.nconns, false)
	if err := b.runClosed(ph, asSources(b.gens(streamWarm)), b.w.window, b.now()+int64(warmup)); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return time.Since(t0), nil
}

func (b *bench) stats() (*wire.StatsReply, error) {
	b.sent.Add(1)
	st, err := b.ctl.Stats()
	if err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	return st, nil
}

// finish closes the connections, checks that wtfd counted exactly the
// requests the generator sent, and kills wtfd with SIGKILL.
func (b *bench) finish() error {
	defer b.kill()
	for _, c := range b.conns {
		c.close()
	}
	b.conns = nil
	// Fast-path GETs are counted in per-connection batches published when
	// the connection stalls or closes, so the count may trail briefly.
	deadline := time.Now().Add(3 * time.Second)
	for {
		st, err := b.stats()
		if err != nil {
			return err
		}
		got, want := st.Server.Requests, b.sent.Load()
		if got == want {
			return nil
		}
		if got > want || time.Now().After(deadline) {
			b.fail(mismatchf("wtfd counted %d requests, the generator sent %d", got, want))
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (b *bench) kill() {
	for _, c := range b.conns {
		c.close()
	}
	b.conns = nil
	if b.ctl != nil {
		b.ctl.Close()
		b.ctl = nil
	}
	if b.d != nil {
		b.d.kill()
		b.d = nil
	}
}

// crashCheck kills wtfd with SIGKILL, restarts it on the same data dir and
// reads every key back: each must hold its last acknowledged value or a
// later issued one. SIGKILL keeps the page cache, so this checks
// process-crash durability only. It returns the restart's recovery time.
func (b *bench) crashCheck() (time.Duration, error) {
	dataDir := b.dataDir
	if err := b.finish(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	d, err := startDaemon(b.wtfdBin, b.w.wtfdArgs(dataDir))
	if err != nil {
		return 0, fmt.Errorf("restart after kill -9: %w", err)
	}
	recovery := time.Since(t0)
	b.d = d
	if err := b.connect(); err != nil {
		return 0, err
	}
	ph := newPhase("readback", b.now(), time.Second, 1, b.nconns, false)
	if err := b.runClosed(ph, b.keySources(true), preloadDepth, 0); err != nil {
		return 0, fmt.Errorf("read-back: %w", err)
	}
	return recovery, b.finish()
}

// metrics maps metric names to values.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// unitOf names a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case name == "max_rps":
		return "1/s"
	case name == "cpu_us_per_req":
		return "us"
	case name == "server.vcsw_per_req":
		return "1/req"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_amp"):
		return "ratio"
	case strings.HasSuffix(name, "_per_commit"), strings.HasSuffix(name, "_per_multi"), strings.HasSuffix(name, "_per_fsync"):
		return "ratio"
	case strings.HasSuffix(name, "_per_record"):
		return "B"
	}
	return "count"
}

// endToEnd are the metrics the JSON result carries on an untraced run:
// those every workload reports, none of which is ever zero, and whose
// run-to-run spread stays well inside a 0.25 bound on a shared 2-vCPU VM.
// Latency percentiles and max_rps are printed by every run but left out:
// there their quartile spread over runs of one build measured 0.13-0.57,
// host noise a regression gate cannot tell from a change.
var endToEnd = []string{"setup_s", "cpu_us_per_req", "rss_mb"}

// perLayer are the metrics the JSON result carries on a traced run. A
// metric of a layer the workload does not reach reads 0.
func perLayer() []string {
	out := []string{
		"wire.req_encode_ns", "wire.req_decode_ns", "wire.resp_encode_ns", "wire.resp_decode_ns",
		"tstruct.get_fast_ns", "tstruct.get_ns", "tstruct.put_ns",
		"mvstm.commit_ns", "mvstm.ro_txn_ns", "mvstm.conflict_ratio", "mvstm.helped_share",
		"core.single_ns", "core.multi_ns", "core.multi_self_ns", "core.futures_per_multi",
		"core.eval_merge_share", "core.reexec_ratio", "core.conflict_ratio",
	}
	for _, st := range serverStages {
		for _, op := range []string{"get", "put", "cas", "multi"} {
			out = append(out, fmt.Sprintf("server.%s_%s_p50_us", st, op), fmt.Sprintf("server.%s_%s_p99_us", st, op))
		}
	}
	out = append(out,
		"server.exec_group_p50_us", "server.exec_group_p99_us", "server.sync_group_p50_us", "server.sync_group_p99_us",
		"server.fastread_p50_us", "server.fastread_p99_us",
		"server.unattributed_get_p50_us", "server.unattributed_put_p50_us",
		"server.unattributed_cas_p50_us", "server.unattributed_multi_p50_us",
		"server.fastread_share", "server.fastread_fallback_ratio", "server.group_ops_per_commit",
		"server.exec_queue_hwm", "server.shed_ratio", "server.vcsw_per_req",
		"wal.append_ns", "wal.sync_us", "wal.records_per_fsync", "wal.bytes_per_record",
		"wal.fsync_p50_us", "wal.fsync_p99_us",
		"persist.snapshots", "persist.checkpoint_s", "persist.recover_s",
		"gen.late_p99_us", "gen.get_n", "gen.put_n", "gen.cas_n", "gen.multi_n",
		"trace.overhead_ratio",
	)
	return out
}

// errInvalid marks a run whose numbers must not be reported.
var errInvalid = errors.New("invalid run")

// sortedQuantile returns the q-quantile of sorted xs (nearest rank).
func sortedQuantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[min(max(i, 0), len(xs)-1)])
}

// phaseLatency returns an open-loop phase's p50 and p99 (µs) for the
// given kinds together: each is the median over the phase's windows of that
// window's percentile. n is the sample count. A window with fewer than
// 1000 samples leaves fewer than ten beyond its p99, which makes the run
// invalid.
func phaseLatency(ph *phase, kinds ...opKind) (p50, p99 float64, n int, err error) {
	var w50, w99 []float64
	for w := range ph.nwin {
		var xs []int64
		for _, r := range ph.recs {
			for _, k := range kinds {
				xs = append(xs, r.lat[k][w]...)
			}
		}
		if len(xs) < 1000 {
			return 0, 0, 0, fmt.Errorf("%w: %s window %d of %v has %d samples, fewer than ten beyond its p99", errInvalid, ph.name, w, kinds, len(xs))
		}
		slices.Sort(xs)
		w50 = append(w50, sortedQuantile(xs, 0.5)/1e3)
		w99 = append(w99, sortedQuantile(xs, 0.99)/1e3)
		n += len(xs)
	}
	return median(w50), median(w99), n, nil
}

// lateness returns the p50 and p99 of how late the open-loop sender ran
// (µs).
func lateness(ph *phase) (p50, p99 float64) {
	var xs []int64
	for _, r := range ph.recs {
		xs = append(xs, r.late...)
	}
	slices.Sort(xs)
	return sortedQuantile(xs, 0.5) / 1e3, sortedQuantile(xs, 0.99) / 1e3
}

func phaseSum(ph *phase, f func(*phaseRec) int64) int64 {
	var n int64
	for _, r := range ph.recs {
		n += f(r)
	}
	return n
}

func (b *bench) issuedKinds() []opKind {
	var ks []opKind
	for k := range numKinds {
		if b.w.issues(k) {
			ks = append(ks, k)
		}
	}
	return ks
}

// openMetrics records an open-loop phase's latency and generator metrics
// and checks the phase's validity.
func (b *bench) openMetrics(ph *phase, m metrics) error {
	late50, late99 := lateness(ph)
	m.set("gen.late_p99_us", late99)
	if late50 > float64(maxLateP50.Microseconds()) || late99 > float64(maxLateP99.Microseconds()) {
		return fmt.Errorf("%w: %s: generator fell behind its schedule (lateness p50 %.0fus, p99 %.0fus; limits %v, %v)",
			errInvalid, ph.name, late50, late99, maxLateP50, maxLateP99)
	}
	for _, k := range b.issuedKinds() {
		p50, p99, n, err := phaseLatency(ph, k)
		if err != nil {
			return err
		}
		m.set(k.String()+"_p50_us", p50)
		m.set(k.String()+"_p99_us", p99)
		m.set("gen."+k.String()+"_n", float64(n))
	}
	p50, p99, _, err := phaseLatency(ph, b.issuedKinds()...)
	if err != nil {
		return err
	}
	m.set("lat_p50_us", p50)
	m.set("lat_p99_us", p99)
	return nil
}

func windowsIn(dur time.Duration) int { return max(1, int(dur/windowLen)) }

func (b *bench) openPhase(name string, stream uint64, dur time.Duration, traced bool) (*phase, error) {
	ph := newPhase(name, b.now(), dur, windowsIn(dur), b.nconns, true)
	ph.traced = traced
	return ph, b.runOpen(ph, b.gens(stream), b.w.rate, dur)
}

// satPhase runs the closed-loop saturation phase and returns the median
// per-window completion rate.
func (b *bench) satPhase(dur time.Duration, traced bool) (*phase, float64, error) {
	start := b.now()
	ph := newPhase("saturation", start, dur, windowsIn(dur), b.nconns, false)
	ph.traced = traced
	if err := b.runClosed(ph, asSources(b.gens(streamSat)), b.w.window, start+int64(dur)); err != nil {
		return nil, 0, err
	}
	var rates []float64
	for w := range ph.nwin {
		var n int64
		for _, r := range ph.recs {
			n += r.doneWin[w]
		}
		rates = append(rates, float64(n)/(float64(ph.winNS)/1e9))
	}
	return ph, median(rates), nil
}

func (b *bench) newDataDir(tag string) (string, error) {
	if !b.w.durable {
		return "", nil
	}
	return os.MkdirTemp(b.tmpDir, "data-"+tag+"-")
}

// liveUserBytes is the key+value bytes of the whole preloaded keyspace.
func (b *bench) liveUserBytes() int64 {
	var n int64
	for _, k := range b.keyStrs {
		n += int64(len(k) + valLen)
	}
	return n
}

// runUntraced is the end-to-end measurement.
func (b *bench) runUntraced(m metrics) error {
	var setups []float64
	for i := range setupRuns {
		dir, err := b.newDataDir(fmt.Sprint(i))
		if err != nil {
			return err
		}
		d, err := b.start(dir)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			if err := b.finish(); err != nil {
				return err
			}
			os.RemoveAll(dir)
		}
	}
	m.set("setup_s", median(setups))

	openDur := time.Duration(b.seconds) * time.Second * 3 / 4
	satDur := time.Duration(b.seconds)*time.Second - openDur
	p0, err := readProc(b.d.pid())
	if err != nil {
		return err
	}
	ph, err := b.openPhase("open", streamOpen, openDur, false)
	if err != nil {
		return err
	}
	p1, err := readProc(b.d.pid())
	if err != nil {
		return err
	}
	if err := b.openMetrics(ph, m); err != nil {
		return err
	}
	done := phaseSum(ph, func(r *phaseRec) int64 { return r.done })
	m.set("cpu_us_per_req", float64(p1.cpuTicks-p0.cpuTicks)/clockTicks*1e6/float64(done))

	sat, rps, err := b.satPhase(satDur, false)
	if err != nil {
		return err
	}
	m.set("max_rps", rps)
	p2, err := readProc(b.d.pid())
	if err != nil {
		return err
	}
	m.set("rss_mb", float64(p2.hwmKB)/1024)

	if !b.w.durable {
		return b.finish()
	}
	user := phaseSum(ph, func(r *phaseRec) int64 { return r.userBytes }) + phaseSum(sat, func(r *phaseRec) int64 { return r.userBytes })
	m.set("write_amp", float64(p2.writeBytes-p0.writeBytes)/float64(user))
	m.set("space_amp", float64(dirBytes(b.dataDir))/float64(b.liveUserBytes()))
	rec, err := b.crashCheck()
	m.set("persist.recover_s", rec.Seconds())
	return err
}

// runTraced is the per-layer measurement.
func (b *bench) runTraced(m metrics) error {
	dir, err := b.newDataDir("traced")
	if err != nil {
		return err
	}
	if _, err := b.start(dir); err != nil {
		return err
	}
	total := time.Duration(b.seconds) * time.Second
	phaseDur := total / 4

	s0, err := b.stats()
	if err != nil {
		return err
	}
	p0, err := readProc(b.d.pid())
	if err != nil {
		return err
	}
	plain, err := b.openPhase("open", streamOpen, phaseDur, false)
	if err != nil {
		return err
	}
	p1, err := readProc(b.d.pid())
	if err != nil {
		return err
	}
	s1, err := b.stats()
	if err != nil {
		return err
	}
	traced, err := b.openPhase("open-traced", streamOpenTraced, phaseDur, true)
	if err != nil {
		return err
	}
	if _, _, err := b.satPhase(phaseDur*3/4, true); err != nil {
		return err
	}
	sEnd, err := b.stats()
	if err != nil {
		return err
	}

	if err := b.openMetrics(plain, m); err != nil {
		return err
	}
	tm := metrics{}
	if err := b.openMetrics(traced, tm); err != nil {
		return err
	}
	m.set("trace.overhead_ratio", ratio(tm["lat_p50_us"], m["lat_p50_us"]))
	delta, err := newStatsDelta(s0, s1)
	if err != nil {
		return err
	}
	gets := phaseSum(plain, func(r *phaseRec) int64 { return r.sent[opGet] })
	delta.serverMetrics(m, gets)
	m.set("server.vcsw_per_req", ratio(float64(p1.vcsw-p0.vcsw), float64(s1.Server.Requests-s0.Server.Requests)))
	for _, k := range b.issuedKinds() {
		op := k.String()
		var server float64
		if k == opGet && m["server.fastread_share"] > 0.5 {
			server = delta.quantile("fastread", "", 0.5) / 1e3
		} else {
			for _, st := range serverStages {
				server += delta.stageP50us(st, op)
			}
		}
		m.set("server.unattributed_"+op+"_p50_us", m[op+"_p50_us"]-server)
	}
	if sEnd.WAL != nil {
		m.set("persist.snapshots", float64(sEnd.WAL.Snapshots))
	}
	if b.w.durable {
		rec, err := b.crashCheck()
		if err != nil {
			return err
		}
		m.set("persist.recover_s", rec.Seconds())
	} else if err := b.finish(); err != nil {
		return err
	}
	if err := b.runLadder(total / 8); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	b.ladderMetrics(m)
	return b.splitCheck(m, sEnd)
}

// ladderMetrics derives the per-layer metrics timed in process.
func (b *bench) ladderMetrics(m metrics) {
	x := b.tr.index()
	by := map[string]rung{}
	for _, r := range x.rungs() {
		by[r.name] = r
	}
	for _, n := range []string{"req_encode", "req_decode", "resp_encode", "resp_decode"} {
		m.set("wire."+n+"_ns", by["wire."+n].perCall)
	}
	m.set("tstruct.get_fast_ns", by["tstruct.get_fast"].perCall)
	m.set("tstruct.get_ns", by["tstruct.get"].p50)
	m.set("tstruct.put_ns", by["tstruct.put"].p50)
	m.set("mvstm.commit_ns", by["mvstm.commit"].p50)
	m.set("mvstm.ro_txn_ns", by["mvstm.ro_txn"].p50)
	m.set("core.single_ns", by["core.single"].p50)
	m.set("core.multi_ns", by["core.atomic"].p50)
	var self []float64
	for i := range x.spans {
		if s := &x.spans[i]; s.name == "core.atomic" {
			self = append(self, float64(x.selfExcept(s, "tstruct.")))
		}
	}
	m.set("core.multi_self_ns", median(self))
	m.set("wal.append_ns", by["wal.append"].p50)
	m.set("wal.sync_us", by["wal.sync"].p50/1e3)
	m.set("persist.checkpoint_s", by["persist.checkpoint_all"].p50/1e9)
}

// splitCheck confirms that each workload reaches the layers it claims and
// bypasses the ones it claims to bypass.
func (b *bench) splitCheck(m metrics, end *wire.StatsReply) error {
	var fails []string
	check := func(ok bool, what string) {
		if !ok {
			fails = append(fails, what)
		}
	}
	switch b.w.name {
	case "kv-read95":
		check(m["server.fastread_share"] >= 0.9, fmt.Sprintf("fastread_share %.3f >= 0.9", m["server.fastread_share"]))
		check(end.WAL == nil, "no wal/persist activity")
	case "multi8-skew":
		check(m["core.futures_per_multi"] > 1, fmt.Sprintf("futures_per_multi %.2f > 1", m["core.futures_per_multi"]))
		check(end.Server.FastReads == 0, "no fast reads")
		check(end.WAL == nil, "no wal activity")
	case "durable-write":
		want := 3 * float64(ladderShards)
		check(m["persist.snapshots"] >= want, fmt.Sprintf("persist.snapshots %.0f >= %.0f (3 per shard)", m["persist.snapshots"], want))
	}
	if len(fails) > 0 {
		return fmt.Errorf("split check failed: %s", strings.Join(fails, "; "))
	}
	fmt.Println("wtfbed split-check ok")
	return nil
}

// provenance describes where and how a result was produced.
func (b *bench) provenance(argv []string) map[string]any {
	cpu := "unknown"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	wtfdProcs := "GOMAXPROCS unset: nproc"
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		wtfdProcs = v
	}
	return map[string]any{
		"workload":           b.w.name,
		"why":                b.w.why,
		"seed":               b.seed,
		"seconds":            b.seconds,
		"nproc":              runtime.NumCPU(),
		"gen_gomaxprocs":     runtime.GOMAXPROCS(0),
		"gen_connections":    b.nconns,
		"wtfd_gomaxprocs":    wtfdProcs,
		"cpu_model":          cpu,
		"go_version":         runtime.Version(),
		"git_rev":            gitRev(b.root),
		"source_sha256":      sourceDigest(b.root),
		"wtfd_argv":          argv,
		"open_rate_rps":      b.w.rate,
		"closed_window":      b.w.window,
		"sender_sched":       senderSched(b.realtime),
		"durability_checked": b.w.durable,
	}
}

func senderSched(realtime bool) string {
	if realtime {
		return "SCHED_FIFO"
	}
	return "SCHED_OTHER (SCHED_FIFO not permitted)"
}

// gitRev reads HEAD without a git binary; a checkout that is not a git
// repository has none, and sourceDigest identifies the code instead.
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if rev, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(rev))
	}
	return ref
}

// sourceDigest hashes every .go and go.mod file of the checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && (e.Name() == ".git" || e.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if e.Type().IsRegular() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			if data, err := os.ReadFile(path); err == nil {
				rel, _ := filepath.Rel(root, path)
				fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reportOrder lists the metrics an untraced run prints, in order.
var reportOrder = []string{
	"setup_s", "max_rps", "lat_p50_us", "lat_p99_us",
	"get_p50_us", "get_p99_us", "put_p50_us", "put_p99_us",
	"cas_p50_us", "cas_p99_us", "multi_p50_us", "multi_p99_us",
	"fail_ratio", "cpu_us_per_req", "rss_mb", "write_amp", "space_amp",
	"persist.recover_s", "gen.late_p99_us", "gen.get_n", "gen.put_n", "gen.cas_n", "gen.multi_n",
}

func printRungs(x *spanIndex) {
	fmt.Printf("wtfbed rung %-24s %8s %10s %12s %12s %12s\n", "span", "spans", "calls", "percall_ns", "p50_ns", "self_p50_ns")
	for _, r := range x.rungs() {
		fmt.Printf("wtfbed rung %-24s %8d %10d %12.1f %12.1f %12.1f\n", r.name, r.spans, r.calls, r.perCall, r.p50, r.selfP50)
	}
}

func run() int {
	var (
		wtfdBin  = flag.String("wtfd", "", "wtfd binary")
		work     = flag.String("work", ".bench_build", "directory for data dirs, traces and temp files")
		root     = flag.String("root", ".", "checkout root (provenance)")
		wname    = flag.String("workload", "", "workload: kv-read95, multi8-skew or durable-write")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		traceArg = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	w, err := findWorkload(*wname)
	if err != nil || *wtfdBin == "" || *seconds < 2 || *traceArg < 0 || *traceArg > 1 {
		fmt.Fprintf(os.Stderr, "wtfbed: bad arguments (workload %q: %v)\n", *wname, err)
		return 2
	}
	b := &bench{
		w: w, seed: *seed, seconds: *seconds, wtfdBin: *wtfdBin, work: *work, root: *root,
		nconns: nconns, epoch: time.Now(), realtime: probeFIFO(),
	}
	for k := range w.keys {
		b.keyStrs = append(b.keyStrs, fmt.Sprintf("key%05d", k))
	}
	if err := os.MkdirAll(filepath.Join(b.work, "tmp"), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "wtfbed: %v\n", err)
		return 1
	}
	if b.tmpDir, err = os.MkdirTemp(filepath.Join(b.work, "tmp"), "run-"); err != nil {
		fmt.Fprintf(os.Stderr, "wtfbed: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.tmpDir)
	defer b.kill()

	prov := b.provenance(append([]string{b.wtfdBin}, w.wtfdArgs("<fresh temp dir>")...))
	pj, _ := json.Marshal(prov)
	fmt.Printf("wtfbed provenance %s\n", pj)

	m := metrics{}
	names := endToEnd
	if *traceArg == 1 {
		b.tr = newTracer(b.epoch)
		names = perLayer()
		err = b.runTraced(m)
	} else {
		err = b.runUntraced(m)
	}
	if err == nil {
		err = b.firstErr()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wtfbed: %s seed %d: %v\n", w.name, b.seed, err)
		for _, s := range b.errSamples {
			fmt.Fprintf(os.Stderr, "wtfbed:   %s\n", s)
		}
		if errors.Is(err, errInvalid) {
			return 3
		}
		return 1
	}
	attempted, failed := b.attempted.Load(), b.failed.Load()
	m.set("fail_ratio", ratio(float64(failed), float64(attempted)))

	if b.tr != nil {
		x := b.tr.index()
		printRungs(x)
		tdir := filepath.Join(b.work, "traces")
		path := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.tsv", w.name, b.seed))
		if err := os.MkdirAll(tdir, 0o755); err == nil {
			if err := b.tr.writeFile(path); err != nil {
				fmt.Fprintf(os.Stderr, "wtfbed: write spans: %v\n", err)
			} else {
				fmt.Printf("wtfbed spans %d written to %s (%d dropped)\n", len(b.tr.spans), path, b.tr.dropped)
			}
		}
	}
	report := reportOrder
	if b.tr != nil {
		report = names
	}
	for _, name := range report {
		if v, ok := m[name]; ok {
			fmt.Printf("wtfbed metric %-34s %14.4f %s\n", name, v, unitOf(name))
		}
	}
	res := result{Correct: b.mismatches == 0 && failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricJSON{}}
	for _, name := range names {
		res.Metrics[name] = metricJSON{Value: m[name], Unit: unitOf(name)}
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		for _, s := range b.errSamples {
			fmt.Fprintf(os.Stderr, "wtfbed: %s\n", s)
		}
		return 1
	}
	return 0
}

func main() { os.Exit(run()) }
