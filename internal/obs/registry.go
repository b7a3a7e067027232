package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels are constant per-series labels, fixed at registration time.
// Dynamic label values are deliberately unsupported: every series is
// pre-registered, so the record path never formats strings or consults a
// map.
type Labels map[string]string

// desc is a series' identity, prerendered so exposition is a plain write.
type desc struct {
	fam    string // metric family name, e.g. "wtfd_stage_latency_seconds"
	help   string
	typ    string // "counter" | "gauge" | "summary"
	labels string // sorted, rendered `k="v",k2="v2"` (no braces), may be ""
}

// series returns the full sample name, with extra appended to the label
// set (used for quantile labels on histogram summaries).
func (d *desc) series(extra string) string {
	l := d.labels
	if extra != "" {
		if l != "" {
			l += ","
		}
		l += extra
	}
	if l == "" {
		return d.fam
	}
	return d.fam + "{" + l + "}"
}

func renderLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(ls[k]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
	d desc
}

func (c *Counter) Inc()         { c.v.Add(1) }
func (c *Counter) Add(n int64)  { c.v.Add(n) }
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64.
type Gauge struct {
	v atomic.Int64
	d desc
}

func (g *Gauge) Set(n int64)  { g.v.Store(n) }
func (g *Gauge) Add(n int64)  { g.v.Add(n) }
func (g *Gauge) Value() int64 { return g.v.Load() }

// funcSample is a counter or gauge whose value is read at scrape time,
// used to expose counters the hot paths already maintain (server atomics,
// queue lengths) without double-counting writes.
type funcSample struct {
	d   desc
	fn  func() int64
	ffn func() float64 // set instead of fn for float-valued series
}

// Registry holds an ordered set of metrics and renders them in Prometheus
// text exposition format. Registration is cheap but not hot-path safe;
// register everything at startup.
type Registry struct {
	mu    sync.Mutex
	order []any // *Counter | *Gauge | *funcSample | *Histogram
}

func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(m any) {
	r.mu.Lock()
	r.order = append(r.order, m)
	r.mu.Unlock()
}

// Counter registers and returns a new counter series.
func (r *Registry) Counter(name, help string, ls Labels) *Counter {
	c := &Counter{d: desc{fam: name, help: help, typ: "counter", labels: renderLabels(ls)}}
	r.add(c)
	return c
}

// Gauge registers and returns a new gauge series.
func (r *Registry) Gauge(name, help string, ls Labels) *Gauge {
	g := &Gauge{d: desc{fam: name, help: help, typ: "gauge", labels: renderLabels(ls)}}
	r.add(g)
	return g
}

// CounterFunc registers a counter whose value is fn() at scrape time.
func (r *Registry) CounterFunc(name, help string, ls Labels, fn func() int64) {
	r.add(&funcSample{d: desc{fam: name, help: help, typ: "counter", labels: renderLabels(ls)}, fn: fn})
}

// GaugeFunc registers a gauge whose value is fn() at scrape time.
func (r *Registry) GaugeFunc(name, help string, ls Labels, fn func() int64) {
	r.add(&funcSample{d: desc{fam: name, help: help, typ: "gauge", labels: renderLabels(ls)}, fn: fn})
}

// FloatCounterFunc registers a float-valued counter (e.g. seconds) whose
// value is fn() at scrape time.
func (r *Registry) FloatCounterFunc(name, help string, ls Labels, fn func() float64) {
	r.add(&funcSample{d: desc{fam: name, help: help, typ: "counter", labels: renderLabels(ls)}, ffn: fn})
}

// Histogram registers a histogram exposed as a Prometheus summary
// (quantile series + _sum/_count) of the raw recorded values.
func (r *Registry) Histogram(name, help string, ls Labels) *Histogram {
	h := NewHistogram(0)
	h.desc = desc{fam: name, help: help, typ: "summary", labels: renderLabels(ls)}
	r.add(h)
	return h
}

// DurationHistogram is Histogram for values recorded in nanoseconds but
// exposed in seconds, per Prometheus convention.
func (r *Registry) DurationHistogram(name, help string, ls Labels) *Histogram {
	h := r.Histogram(name, help, ls)
	h.scale = 1e-9
	return h
}

var quantiles = []struct {
	label string
	q     float64
}{
	{`quantile="0.5"`, 0.5},
	{`quantile="0.9"`, 0.9},
	{`quantile="0.99"`, 0.99},
	{`quantile="0.999"`, 0.999},
}

// WritePrometheus renders every registered series in text exposition
// format. HELP/TYPE headers are emitted once per family, on first use.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	order := make([]any, len(r.order))
	copy(order, r.order)
	r.mu.Unlock()

	var b strings.Builder
	seen := make(map[string]bool, len(order))
	header := func(d *desc) {
		if seen[d.fam] {
			return
		}
		seen[d.fam] = true
		if d.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(d.fam)
			b.WriteByte(' ')
			b.WriteString(d.help)
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(d.fam)
		b.WriteByte(' ')
		b.WriteString(d.typ)
		b.WriteByte('\n')
	}
	intSample := func(d *desc, v int64) {
		header(d)
		b.WriteString(d.series(""))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(v, 10))
		b.WriteByte('\n')
	}
	for _, m := range order {
		switch m := m.(type) {
		case *Counter:
			intSample(&m.d, m.Value())
		case *Gauge:
			intSample(&m.d, m.Value())
		case *funcSample:
			if m.ffn != nil {
				header(&m.d)
				b.WriteString(m.d.series(""))
				b.WriteByte(' ')
				b.WriteString(strconv.FormatFloat(m.ffn(), 'g', -1, 64))
				b.WriteByte('\n')
				continue
			}
			intSample(&m.d, m.fn())
		case *Histogram:
			header(&m.desc)
			s := m.Snapshot()
			for _, qs := range quantiles {
				fmt.Fprintf(&b, "%s %g\n", m.desc.series(qs.label), float64(s.Quantile(qs.q))*m.scale)
			}
			fmt.Fprintf(&b, "%s %g\n", m.desc.fam+"_sum"+braced(m.desc.labels), float64(s.Sum)*m.scale)
			fmt.Fprintf(&b, "%s %d\n", m.desc.fam+"_count"+braced(m.desc.labels), s.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}
