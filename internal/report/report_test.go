package report

import (
	"math"
	"strings"
	"testing"

	"jade/internal/metrics"
)

func ramp(name string, n int) *metrics.Series {
	s := metrics.NewSeries(name)
	for i := 0; i < n; i++ {
		s.Add(float64(i), float64(i%10))
	}
	return s
}

func TestChartRendersSeriesAndLegend(t *testing.T) {
	s := ramp("cpu", 100)
	c := &Chart{
		Title:  "Figure X",
		Series: []ChartSeries{FromSeries(s, '*')},
		HLines: []HLine{{Name: "max", Value: 8, Glyph: '='}},
	}
	out := c.Render()
	if !strings.Contains(out, "Figure X") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "*") {
		t.Fatal("series glyph missing")
	}
	if !strings.Contains(out, "=") {
		t.Fatal("hline glyph missing")
	}
	if !strings.Contains(out, "legend: * cpu | = max") {
		t.Fatalf("legend missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + 16 rows + axis + labels + legend.
	if len(lines) != 1+16+1+1+1 {
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestChartEmptySeries(t *testing.T) {
	c := &Chart{Series: []ChartSeries{{Name: "empty", Glyph: 'x'}}}
	out := c.Render()
	if strings.Contains(out, "x ") && strings.Contains(out, "| x") {
		t.Fatal("glyphs drawn for empty series")
	}
	// No panic is the main contract; axis should still render.
	if !strings.Contains(out, "+") {
		t.Fatal("axis missing")
	}
}

func TestChartGuardsNaNAndEmptySeries(t *testing.T) {
	good := metrics.NewSeries("good")
	good.Add(0, 1)
	good.Add(10, 3)
	poisoned := metrics.NewSeries("poisoned")
	poisoned.Add(0, math.NaN())
	poisoned.Add(5, math.Inf(1))
	c := &Chart{
		Series: []ChartSeries{
			FromSeries(good, '*'),
			FromSeries(poisoned, 'p'),
			{Name: "empty", Glyph: 'e'},
		},
		HLines: []HLine{{Name: "bad-line", Value: math.NaN(), Glyph: '='}},
	}
	out := c.Render()
	if strings.Contains(out, "NaN") {
		t.Fatalf("NaN leaked into the chart:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatalf("finite series not drawn:\n%s", out)
	}
	for _, g := range []string{"p", "="} {
		if strings.Contains(strings.SplitN(out, "legend:", 2)[0], g) {
			t.Fatalf("glyph %q drawn for non-finite data:\n%s", g, out)
		}
	}
	if !strings.Contains(out, "! poisoned (no data)") || !strings.Contains(out, "! empty (no data)") {
		t.Fatalf("legend should flag data-less series:\n%s", out)
	}
	// A NaN sample inside an otherwise healthy series is just skipped.
	mixed := metrics.NewSeries("mixed")
	mixed.Add(0, 1)
	mixed.Add(1, math.NaN())
	mixed.Add(2, 2)
	out = (&Chart{Series: []ChartSeries{FromSeries(mixed, 'm')}}).Render()
	if !strings.Contains(out, "m") || strings.Contains(out, "(no data)") {
		t.Fatalf("mixed series should plot its finite points:\n%s", out)
	}
}

func TestChartRespectsYMax(t *testing.T) {
	s := metrics.NewSeries("v")
	s.Add(0, 5)
	s.Add(10, 100)
	c := &Chart{YMax: 10, Height: 10, Width: 20, Series: []ChartSeries{FromSeries(s, '*')}}
	out := c.Render()
	// The top label must reflect YMax, not the series max.
	if !strings.Contains(out, "10 |") {
		t.Fatalf("y axis not clamped:\n%s", out)
	}
}

func TestChartMultiSeriesOverdraw(t *testing.T) {
	a := metrics.NewSeries("a")
	b := metrics.NewSeries("b")
	for i := 0; i < 50; i++ {
		a.Add(float64(i), 2)
		b.Add(float64(i), 8)
	}
	c := &Chart{Series: []ChartSeries{FromSeries(a, 'a'), FromSeries(b, 'b')}}
	out := c.Render()
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Fatal("both series should render at distinct heights")
	}
}

func TestTableAlignment(t *testing.T) {
	tb := &Table{
		Title:   "Table 1. Performance overhead",
		Headers: []string{"", "with Jade", "without Jade"},
	}
	tb.AddRow("Throughput (req./s)", "12", "12")
	tb.AddRow("Resp.time (ms)", "89", "87")
	out := tb.Render()
	if !strings.Contains(out, "Table 1") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	// All data lines equal length (alignment).
	if len(lines[1]) != len(lines[3]) || len(lines[3]) != len(lines[4]) {
		t.Fatalf("misaligned table:\n%s", out)
	}
}

func TestCSVResamplesOntoCommonGrid(t *testing.T) {
	a := metrics.NewSeries("a")
	a.Add(0, 1)
	a.Add(10, 2)
	b := metrics.NewSeries("b")
	b.Add(5, 7)
	out := CSV(5, a, b)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "time,a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 4 { // t = 0, 5, 10
		t.Fatalf("rows = %d:\n%s", len(lines), out)
	}
	if lines[1] != "0.000,1,0" {
		t.Fatalf("row 0 = %q", lines[1])
	}
	if lines[3] != "10.000,2,7" {
		t.Fatalf("row 2 = %q", lines[3])
	}
	if CSV(1) != "" {
		t.Fatal("CSV() with no series should be empty")
	}
	empty := metrics.NewSeries("e")
	if CSV(1, empty) != "" {
		t.Fatal("CSV of empty series should be empty")
	}
}
