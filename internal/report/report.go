// Package report renders experiment results: multi-series ASCII charts
// (the textual equivalent of the paper's gnuplot figures), aligned tables
// (Table 1), and CSV emitters for external plotting.
package report

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"jade/internal/metrics"
)

// Chart renders one or more time series as an ASCII plot.
type Chart struct {
	Title  string
	YLabel string
	// Width and Height are the plot area size in characters.
	Width, Height int
	// YMax overrides the y-axis maximum (0 = auto).
	YMax float64
	// YMin is the y-axis minimum (default 0).
	YMin float64
	// Series are drawn in order; later series overdraw earlier ones.
	Series []ChartSeries
	// HLines draws horizontal reference lines (e.g. thresholds).
	HLines []HLine
}

// ChartSeries is one plotted series. Render collects its points; a nil
// Series is drawn as a series without data.
type ChartSeries struct {
	Name   string
	Glyph  byte
	Series *metrics.Series
}

// HLine is a horizontal reference line.
type HLine struct {
	Name  string
	Value float64
	Glyph byte
}

// FromSeries converts a metrics series to a chart series.
func FromSeries(s *metrics.Series, glyph byte) ChartSeries {
	return ChartSeries{Name: s.Name, Glyph: glyph, Series: s}
}

// Render draws the chart.
func (c *Chart) Render() string {
	width, height := c.Width, c.Height
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 16
	}
	tMin, tMax := math.Inf(1), math.Inf(-1)
	yMax := c.YMax
	points := make([][]metrics.Point, len(c.Series))
	for i, s := range c.Series {
		points[i] = finitePoints(s.Series)
		for _, p := range points[i] {
			tMin = math.Min(tMin, p.T)
			tMax = math.Max(tMax, p.T)
			if c.YMax == 0 && p.V > yMax {
				yMax = p.V
			}
		}
	}
	if c.YMax == 0 {
		for _, h := range c.HLines {
			if isFinite(h.Value) && h.Value > yMax {
				yMax = h.Value
			}
		}
	}
	if math.IsInf(tMin, 1) {
		tMin, tMax = 0, 1
	}
	if tMax <= tMin {
		tMax = tMin + 1
	}
	if yMax <= c.YMin {
		yMax = c.YMin + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	row := func(v float64) int {
		frac := (v - c.YMin) / (yMax - c.YMin)
		r := height - 1 - int(math.Round(frac*float64(height-1)))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	for _, h := range c.HLines {
		if !isFinite(h.Value) {
			continue
		}
		r := row(h.Value)
		g := h.Glyph
		if g == 0 {
			g = '-'
		}
		for x := 0; x < width; x++ {
			grid[r][x] = g
		}
	}
	for i, s := range c.Series {
		pts := points[i]
		if len(pts) == 0 {
			continue
		}
		g := s.Glyph
		if g == 0 {
			g = '*'
		}
		// Step-interpolated sampling at each column.
		idx := 0
		last := pts[0].V
		for x := 0; x < width; x++ {
			t := tMin + (tMax-tMin)*float64(x)/float64(width-1)
			for idx < len(pts) && pts[idx].T <= t {
				last = pts[idx].V
				idx++
			}
			if pts[0].T > t {
				continue
			}
			grid[row(last)][x] = g
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	label := c.YLabel
	for i, line := range grid {
		yVal := yMax - (yMax-c.YMin)*float64(i)/float64(height-1)
		prefix := fmt.Sprintf("%9.3g |", yVal)
		if i == 0 && label != "" {
			prefix = fmt.Sprintf("%9.9s |", label)
			prefix = fmt.Sprintf("%9.3g |", yVal)
		}
		b.WriteString(prefix)
		b.Write(line)
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", 10) + "+" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&b, "%10s %-12.4g%s%12.4g\n", "", tMin,
		strings.Repeat(" ", maxInt(1, width-24)), tMax)
	var legend []string
	for i, s := range c.Series {
		if len(points[i]) == 0 {
			legend = append(legend, fmt.Sprintf("! %s (no data)", s.Name))
			continue
		}
		g := s.Glyph
		if g == 0 {
			g = '*'
		}
		legend = append(legend, fmt.Sprintf("%c %s", g, s.Name))
	}
	for _, h := range c.HLines {
		g := h.Glyph
		if g == 0 {
			g = '-'
		}
		legend = append(legend, fmt.Sprintf("%c %s", g, h.Name))
	}
	if len(legend) > 0 {
		fmt.Fprintf(&b, "  legend: %s\n", strings.Join(legend, " | "))
	}
	return b.String()
}

// finitePoints collects the series' samples without NaN/Inf ones; a
// series with no finite point at all is left off the plot and flagged
// with '!' in the legend.
func finitePoints(s *metrics.Series) []metrics.Point {
	if s == nil {
		return nil
	}
	return slices.DeleteFunc(s.AppendPoints(nil), func(p metrics.Point) bool { return !isFinite(p.T) || !isFinite(p.V) })
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Table renders an aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render draws the table.
func (t *Table) Render() string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", maxInt(1, total-2)) + "\n")
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders multiple series resampled onto a common time grid.
func CSV(step float64, series ...*metrics.Series) string {
	if len(series) == 0 {
		return ""
	}
	tMin, tMax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if s.Len() == 0 {
			continue
		}
		tMin = math.Min(tMin, s.Point(0).T)
		tMax = math.Max(tMax, s.Last().T)
	}
	if math.IsInf(tMin, 1) {
		return ""
	}
	var b strings.Builder
	b.WriteString("time")
	for _, s := range series {
		b.WriteString("," + s.Name)
	}
	b.WriteByte('\n')
	for t := tMin; t <= tMax+1e-9; t += step {
		fmt.Fprintf(&b, "%.3f", t)
		for _, s := range series {
			fmt.Fprintf(&b, ",%.6g", s.At(t))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
