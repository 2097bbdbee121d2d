package jade

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"jade/internal/obs"
)

// TestMetricsDiffReadsNonFiniteValues: the JSON page writes an infinite
// gauge and a histogram that saw NaN as strings; the diff reads them
// back as the values they were, and no tolerance equates one with a
// finite value.
func TestMetricsDiffReadsNonFiniteValues(t *testing.T) {
	page := func(v float64) []byte {
		r := obs.NewRegistry(nil)
		r.Gauge("jade_up", "Up.", obs.L("sign", "+")).Set(math.Inf(1))
		r.Gauge("jade_down", "Down.").Set(math.Inf(-1))
		r.Histogram("jade_latency_seconds", "Latency.").Observe(math.NaN())
		r.Gauge("jade_v", "V.").Set(v)
		return obs.MetricsJSON(r.Snapshot())
	}
	got, err := metricsScalars(page(1))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got["jade_up{sign=+}"], 1) || !math.IsInf(got["jade_down"], -1) ||
		!math.IsNaN(got["jade_latency_seconds_sum"]) || !math.IsNaN(got["jade_latency_seconds_p99"]) || got["jade_v"] != 1 {
		t.Fatalf("read back %v", got)
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	for dir, v := range map[string]float64{dirA: 1, dirB: math.Inf(1)} {
		if err := os.WriteFile(filepath.Join(dir, "metrics-t00000010.json"), page(v), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := DiffRuns(dirA, dirB, RunDiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var metrics []DiffFinding
	for _, f := range d.Findings {
		if f.Section == "metrics" {
			metrics = append(metrics, f)
		}
	}
	if len(metrics) != 1 || metrics[0].Name != "jade_v" || metrics[0].A != 1 || !math.IsInf(metrics[0].B, 1) {
		t.Fatalf("metrics findings %+v, want jade_v 1 -> +Inf alone:\n%s", metrics, d.Render())
	}
}
