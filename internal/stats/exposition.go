package stats

import (
	"io"
	"math"
	"strconv"
	"strings"
)

// Label is one name="value" pair of an exposition sample.
type Label struct{ Name, Value string }

// Sample is one line of a Prometheus text exposition: a series name (a
// histogram's carries its _bucket, _sum or _count suffix), its labels
// in print order, and its value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Family is one metric family: the name its # HELP and # TYPE lines
// carry, its help text and type ("counter", "gauge" or "histogram"),
// and its samples in print order.
type Family struct {
	Name, Help, Type string
	Samples          []Sample
}

// Counter returns a counter family of one unlabelled sample.
func Counter(name, help string, v int64) Family {
	return Family{Name: name, Help: help, Type: "counter", Samples: []Sample{{Name: name, Value: float64(v)}}}
}

// Gauge returns a gauge family of one unlabelled sample.
func Gauge(name, help string, v float64) Family {
	return Family{Name: name, Help: help, Type: "gauge", Samples: []Sample{{Name: name, Value: v}}}
}

// HistogramFamily returns h as a histogram family: one cumulative
// name_bucket sample per bound and one for +Inf, then name_sum and
// name_count.
func HistogramFamily(name, help string, h *LatencyHistogram) Family {
	bucket := name + "_bucket"
	samples := make([]Sample, len(h.les), len(h.les)+2)
	h.mu.Lock()
	defer h.mu.Unlock()
	var acc int64
	for i := range h.les {
		acc += h.counts[i]
		samples[i] = Sample{Name: bucket, Labels: h.les[i : i+1 : i+1], Value: float64(acc)}
	}
	samples = append(samples,
		Sample{Name: name + "_sum", Value: h.sum},
		Sample{Name: name + "_count", Value: float64(h.count)})
	return Family{Name: name, Help: help, Type: "histogram", Samples: samples}
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// WriteText prints fams in the Prometheus text exposition format, in
// order. A family whose name was printed earlier in fams continues
// without a second # HELP/# TYPE header. Integer values print as
// integer literals, so a counter of 1234567 never reads 1.234567e+06.
func WriteText(w io.Writer, fams []Family) error {
	printed := make(map[string]bool, len(fams))
	b := make([]byte, 0, 4096)
	for _, f := range fams {
		b = b[:0]
		if !printed[f.Name] {
			printed[f.Name] = true
			b = append(append(append(b, "# HELP "...), f.Name...), ' ')
			b = append(append(b, f.Help...), "\n# TYPE "...)
			b = append(append(append(append(b, f.Name...), ' '), f.Type...), '\n')
		}
		for _, s := range f.Samples {
			b = append(b, s.Name...)
			sep := byte('{')
			for _, l := range s.Labels {
				b = append(append(append(b, sep), l.Name...), `="`...)
				b = append(append(b, labelEscaper.Replace(l.Value)...), '"')
				sep = ','
			}
			if len(s.Labels) > 0 {
				b = append(b, '}')
			}
			b = append(appendValue(append(b, ' '), s.Value), '\n')
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// appendValue formats v as an integer literal when it is integer-valued
// and fits an int64, and in Go's shortest float form otherwise.
func appendValue(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1<<63 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
