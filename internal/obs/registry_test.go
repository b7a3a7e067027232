package obs

import (
	"strings"
	"testing"
)

func TestRegistryPrometheusText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wtfd_requests_total", "Requests served.", Labels{"op": "get"})
	c2 := r.Counter("wtfd_requests_total", "", Labels{"op": "put"})
	g := r.Gauge("wtfd_inflight", "In-flight requests.", nil)
	r.GaugeFunc("wtfd_queue_depth", "Executor queue depth.", Labels{"executor": "0"}, func() int64 { return 7 })
	r.FloatCounterFunc("go_gc_cpu_seconds_total", "GC CPU time.", nil, func() float64 { return 0.25 })
	h := r.DurationHistogram("wtfd_stage_latency_seconds", "Stage latency.", Labels{"stage": "queue", "op": "get"})

	c.Add(3)
	c2.Inc()
	g.Set(42)
	for i := 0; i < 1000; i++ {
		h.Observe(1_000_000) // 1ms
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE wtfd_requests_total counter",
		`wtfd_requests_total{op="get"} 3`,
		`wtfd_requests_total{op="put"} 1`,
		"# TYPE wtfd_inflight gauge",
		"wtfd_inflight 42",
		`wtfd_queue_depth{executor="0"} 7`,
		"# TYPE go_gc_cpu_seconds_total counter",
		"go_gc_cpu_seconds_total 0.25",
		"# TYPE wtfd_stage_latency_seconds summary",
		`wtfd_stage_latency_seconds{op="get",stage="queue",quantile="0.5"} 0.001`,
		`wtfd_stage_latency_seconds_sum{op="get",stage="queue"} 1`,
		`wtfd_stage_latency_seconds_count{op="get",stage="queue"} 1000`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE wtfd_requests_total") != 1 {
		t.Fatalf("family header repeated:\n%s", out)
	}
}

func TestRegistryQuantileScale(t *testing.T) {
	r := NewRegistry()
	h := r.DurationHistogram("lat_seconds", "", nil)
	h.Observe(2_000_000_000) // 2s
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// 2s falls in a bucket with <=6.25% width; the quantile upper bound
	// in seconds must be near 2.
	if !strings.Contains(b.String(), `lat_seconds{quantile="0.5"} 2.`) {
		t.Fatalf("expected ~2s quantile:\n%s", b.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	if got := renderLabels(Labels{"k": `a"b\c` + "\n"}); got != `k="a\"b\\c\n"` {
		t.Fatalf("escaped labels = %s", got)
	}
}
