package jade

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"jade/internal/obs"
)

// referencePrometheusText is the exposition renderer obs.PrometheusText
// replaced: one string per number and per suffixed sample name, written
// through fmt and a bytes.Buffer. It is the oracle the renderer must
// match byte for byte.
func referencePrometheusText(s *obs.Snapshot) []byte {
	var b bytes.Buffer
	for _, f := range s.Families {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, referenceEscapeHelp(f.Help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		for _, m := range f.Series {
			switch f.Type {
			case obs.HistogramType:
				h := m.Histogram
				for i, bound := range h.Bounds {
					referenceWriteSample(&b, f.Name+"_bucket", m.Sig, "le", referenceFmtFloat(bound), float64(h.Cumulative[i]))
				}
				referenceWriteSample(&b, f.Name+"_bucket", m.Sig, "le", "+Inf", float64(h.Count))
				referenceWriteSample(&b, f.Name+"_sum", m.Sig, "", "", h.Sum)
				referenceWriteSample(&b, f.Name+"_count", m.Sig, "", "", float64(h.Count))
			default:
				referenceWriteSample(&b, f.Name, m.Sig, "", "", m.Value)
			}
		}
	}
	return b.Bytes()
}

func referenceFmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func referenceEscapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func referenceWriteSample(b *bytes.Buffer, name, sig, extraKey, extraVal string, v float64) {
	b.WriteString(name)
	if sig != "" || extraKey != "" {
		b.WriteByte('{')
		b.WriteString(sig)
		if extraKey != "" {
			if sig != "" {
				b.WriteByte(',')
			}
			b.WriteString(extraKey)
			b.WriteString(`="`)
			b.WriteString(extraVal)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(referenceFmtFloat(v))
	b.WriteByte('\n')
}

// TestPrometheusTextMatchesReference renders every metrics snapshot of
// the golden paper-managed run with both renderers. TestGoldenDigests
// hashes only the run's final page; this checks each one, which the run
// renders for /metrics because an admin server is up.
func TestPrometheusTextMatchesReference(t *testing.T) {
	var spec Spec
	for _, m := range goldenMatrix(t) {
		if m.name == "paper-managed" {
			spec = m.spec
		}
	}
	spec.Telemetry.MetricsDir = t.TempDir()
	spec.Telemetry.HTTPAddr = "127.0.0.1:0"
	render := prometheusText
	t.Cleanup(func() { prometheusText = render })
	pages := 0
	prometheusText = func(s *obs.Snapshot) []byte {
		got, want := render(s), referencePrometheusText(s)
		if !bytes.Equal(got, want) {
			t.Errorf("snapshot at t=%g differs from the reference:\n%s\n--- reference ---\n%s", s.Time, got, want)
		}
		pages++
		return got
	}
	res, err := RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	res.Admin.Close()
	if pages < 5 {
		t.Fatalf("the run rendered %d pages", pages)
	}

	// Values and help texts the run does not produce.
	edge := &obs.Snapshot{Families: []obs.FamilySnapshot{
		{Name: "g", Help: "back\\slash\nnew line", Type: obs.GaugeType, Series: []obs.SeriesSnapshot{
			{Value: math.NaN()}, {Sig: `a="1"`, Value: math.Inf(1)}, {Sig: `a="2"`, Value: math.Inf(-1)},
			{Sig: `a="3"`, Value: math.Copysign(0, -1)}, {Sig: `a="4"`, Value: 5e-324}, {Sig: `a="5"`, Value: 1 << 53},
		}},
		{Name: "h", Help: "", Type: obs.HistogramType, Series: []obs.SeriesSnapshot{
			{Histogram: &obs.HistogramSnapshot{Bounds: []float64{0.005, 1, math.Inf(1)}, Cumulative: []uint64{1, 2, 3, 3}, Count: 3, Sum: 0.1 + 0.2}},
			{Sig: `tier="app",x="y"`, Histogram: &obs.HistogramSnapshot{Bounds: []float64{-1}, Cumulative: []uint64{0, 0}, Sum: math.NaN()}},
		}},
	}}
	if got, want := render(edge), referencePrometheusText(edge); !bytes.Equal(got, want) {
		t.Fatalf("edge snapshot differs:\n%s\n--- reference ---\n%s", got, want)
	}
}
