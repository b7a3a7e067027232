package main

import (
	"fmt"

	"wtftm/internal/obs"
	"wtftm/internal/wire"
)

// serverStages are the request stages wtfd's STATS latency section splits
// by op; fastread is the sampled serve time of the lock-free GET path.
var serverStages = []string{"decode", "queue", "exec", "sync", "flush"}

// statsDelta is what wtfd did between two STATS replies.
type statsDelta struct {
	a, b *wire.StatsReply
	hist map[string]obs.HistSnapshot // "stage/op" -> counts between a and b
}

func histKey(stage, op string) string { return stage + "/" + op }

func decodeHists(r *wire.StatsReply) (map[string]obs.HistSnapshot, error) {
	out := make(map[string]obs.HistSnapshot, len(r.Latency))
	for _, l := range r.Latency {
		h, _, err := obs.DecodeHist(l.Hist)
		if err != nil {
			return nil, fmt.Errorf("STATS %s/%s histogram: %w", l.Stage, l.Op, err)
		}
		out[histKey(l.Stage, l.Op)] = h
	}
	return out, nil
}

func newStatsDelta(a, b *wire.StatsReply) (*statsDelta, error) {
	ha, err := decodeHists(a)
	if err != nil {
		return nil, err
	}
	hb, err := decodeHists(b)
	if err != nil {
		return nil, err
	}
	d := &statsDelta{a: a, b: b, hist: make(map[string]obs.HistSnapshot, len(hb))}
	for k, h := range hb {
		prev := ha[k]
		diff := obs.HistSnapshot{Counts: make([]uint64, len(h.Counts)), Sum: h.Sum - prev.Sum}
		for i, c := range h.Counts {
			if i < len(prev.Counts) {
				c -= prev.Counts[i]
			}
			diff.Counts[i] = c
			diff.Count += c
		}
		d.hist[k] = diff
	}
	return d, nil
}

// quantile returns the q-quantile of a stage histogram over the interval,
// in the histogram's raw unit (ns for stage latencies), 0 when empty.
func (d *statsDelta) quantile(stage, op string, q float64) float64 {
	h, ok := d.hist[histKey(stage, op)]
	if !ok || h.Count == 0 {
		return 0
	}
	return float64(h.Quantile(q))
}

func (d *statsDelta) count(stage, op string) uint64 { return d.hist[histKey(stage, op)].Count }

// stageP50us is a stage's p50 for op in µs. wtfd records the exec and sync
// of writes it commits together once per group, under the synthetic
// "group" op, so a PUT or CAS whose own exec/sync series is empty is
// charged the group's. Reads never wait for a sync.
func (d *statsDelta) stageP50us(stage, op string) float64 {
	if (op == "put" || op == "cas") && d.count(stage, op) == 0 && (stage == "exec" || stage == "sync") {
		op = "group"
	}
	return d.quantile(stage, op, 0.5) / 1e3
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// walDelta returns the WAL counters' change (zero on a memory-only wtfd).
func (d *statsDelta) walDelta() wire.WALStats {
	var out wire.WALStats
	if d.a.WAL == nil || d.b.WAL == nil {
		return out
	}
	a, b := d.a.WAL, d.b.WAL
	out.AppendedRecords = b.AppendedRecords - a.AppendedRecords
	out.AppendedBytes = b.AppendedBytes - a.AppendedBytes
	out.Fsyncs = b.Fsyncs - a.Fsyncs
	out.Snapshots = b.Snapshots - a.Snapshots
	return out
}

// serverMetrics derives the per-layer metrics wtfd reports about itself
// over the interval. gets is the number of GETs the generator sent in it.
func (d *statsDelta) serverMetrics(m metrics, gets int64) {
	a, b := d.a, d.b
	for _, st := range serverStages {
		for _, op := range []string{"get", "put", "cas", "multi"} {
			m.set(fmt.Sprintf("server.%s_%s_p50_us", st, op), d.quantile(st, op, 0.5)/1e3)
			m.set(fmt.Sprintf("server.%s_%s_p99_us", st, op), d.quantile(st, op, 0.99)/1e3)
		}
	}
	for _, st := range []string{"exec", "sync"} {
		m.set(fmt.Sprintf("server.%s_group_p50_us", st), d.quantile(st, "group", 0.5)/1e3)
		m.set(fmt.Sprintf("server.%s_group_p99_us", st), d.quantile(st, "group", 0.99)/1e3)
	}
	m.set("server.fastread_p50_us", d.quantile("fastread", "", 0.5)/1e3)
	m.set("server.fastread_p99_us", d.quantile("fastread", "", 0.99)/1e3)

	reqs := float64(b.Server.Requests - a.Server.Requests)
	m.set("server.fastread_share", ratio(float64(b.Server.FastReads-a.Server.FastReads), float64(gets)))
	m.set("server.fastread_fallback_ratio", ratio(float64(b.Server.FastReadFallbacks-a.Server.FastReadFallbacks), float64(gets)))
	m.set("server.group_ops_per_commit", ratio(float64(b.Server.GroupedOps-a.Server.GroupedOps), float64(b.Server.GroupCommits-a.Server.GroupCommits)))
	m.set("server.exec_queue_hwm", float64(b.Server.ExecQueueHWM))
	m.set("server.shed_ratio", ratio(float64(b.Server.Shed-a.Server.Shed), reqs))

	commits := float64(b.STM.Commits - a.STM.Commits)
	conflicts := float64(b.STM.Conflicts - a.STM.Conflicts)
	m.set("mvstm.conflict_ratio", ratio(conflicts, commits+conflicts))
	m.set("mvstm.helped_share", ratio(float64(b.STM.HelpedCommits-a.STM.HelpedCommits), commits))

	e, f := a.Engine, b.Engine
	futures := float64(f.FuturesSubmitted - e.FuturesSubmitted)
	mSub := float64(f.MergedAtSubmission - e.MergedAtSubmission)
	mEval := float64(f.MergedAtEvaluation - e.MergedAtEvaluation)
	tops := float64(f.TopCommits - e.TopCommits)
	topConf := float64(f.TopConflict - e.TopConflict)
	m.set("core.futures_per_multi", ratio(futures, float64(b.Server.MultiBatches-a.Server.MultiBatches)))
	m.set("core.eval_merge_share", ratio(mEval, mSub+mEval))
	m.set("core.reexec_ratio", ratio(float64(f.FutureReexecutions-e.FutureReexecutions), futures))
	m.set("core.conflict_ratio", ratio(topConf, tops+topConf))

	w := d.walDelta()
	m.set("wal.records_per_fsync", ratio(float64(w.AppendedRecords), float64(w.Fsyncs)))
	m.set("wal.bytes_per_record", ratio(float64(w.AppendedBytes), float64(w.AppendedRecords)))
	m.set("wal.fsync_p50_us", d.quantile("fsync", "", 0.5)/1e3)
	m.set("wal.fsync_p99_us", d.quantile("fsync", "", 0.99)/1e3)
}
