package metrics

import (
	"fmt"
	"io"
	"reflect"
)

// Prometheus text exposition (version 0.0.4) for the registry and its
// latency histograms. The renderer is hand-rolled rather than pulling
// in a client library: the format is a few line shapes, and the
// dependency budget here is zero.
//
// Conventions: every metric is prefixed speakup_, counters end in
// _total, histograms are rendered in seconds with the log₂ bucket
// bounds (HistBase << i), cumulative counts, and a terminal +Inf
// bucket equal to _count — the monotonicity the exposition-format
// tests assert.

// promWriter accumulates exposition lines; errors are sticky so call
// sites stay linear.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) meta(name, help, kind string) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// value emits one counter or gauge with its HELP/TYPE metadata.
func (p *promWriter) value(name, help, kind string, v float64) {
	p.meta(name, help, kind)
	p.printf("%s %g\n", name, v)
}

// Histogram emits one Hist as a Prometheus histogram in seconds:
// cumulative le buckets, +Inf, _sum, _count. Trailing empty buckets
// beyond the last occupied one are collapsed into +Inf so an idle
// histogram is four lines, not thirty-six.
func (p *promWriter) histogram(name, help string, h *Hist) {
	p.meta(name, help, "histogram")
	last := 0
	for i := 0; i < HistBuckets; i++ {
		if h.Bucket(i) != 0 {
			last = i
		}
	}
	var cum uint64
	for i := 0; i <= last; i++ {
		cum += h.Bucket(i)
		p.printf("%s_bucket{le=\"%g\"} %d\n", name, (HistBase << uint(i)).Seconds(), cum)
	}
	p.printf("%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
	p.printf("%s_sum %g\n", name, h.Sum().Seconds())
	p.printf("%s_count %d\n", name, h.Count())
}

// WritePrometheus renders every declared metric of s that has a
// Prometheus name, then the latency histograms lat, in Prometheus text
// exposition format. s is a Registry snapshot its owner completed; the
// histograms are read with independent atomic loads, the same
// non-consistent cut Snapshot takes, so rendering never blocks
// recording.
func WritePrometheus(w io.Writer, s *Snapshot, lat *LatencyHists) error {
	p := &promWriter{w: w}
	render := func(d Decl, v reflect.Value) {
		switch {
		case d.Prom == "":
		case d.Kind == "histogram":
			p.histogram(d.Prom, d.Help, v.Addr().Interface().(*Hist))
		case d.Unit == "ms":
			p.value(d.Prom, d.Help, d.Kind, number(v)/1e3)
		default:
			p.value(d.Prom, d.Help, d.Kind, number(v))
		}
	}
	visit(reflect.ValueOf(s).Elem(), render)
	visit(reflect.ValueOf(lat).Elem(), render)
	return p.err
}

func number(v reflect.Value) float64 {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		return float64(v.Int())
	case reflect.Uint64:
		return float64(v.Uint())
	}
	return v.Float()
}

// WritePrometheusValue emits one free-standing counter or gauge in the
// same format, for values outside the declaration (the tracer's).
func WritePrometheusValue(w io.Writer, name, help, kind string, v float64) error {
	p := &promWriter{w: w}
	p.value(name, help, kind, v)
	return p.err
}
