package main

import (
	"bytes"
	"encoding/json"
)

// runSeconds is the measured window: the default --seconds and the
// manifest's run_seconds.
const runSeconds = 40

// e2eMetric is one end-to-end metric of the untraced run. Every
// workload reports every one of them; bound is the share of the
// parent's median by which a change may worsen it.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var e2eMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p99_ms", "ms", "lower", 0.25},
	{"ingest_pts_per_s", "pts/s", "higher", 0.25},
	{"disk_bytes_per_pt", "B/pt", "lower", 0.05},
	{"written_bytes_per_pt", "B/pt", "lower", 0.1},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// describeJSON renders BENCHMARK.json from the workload and metric
// tables, so the file and the program cannot drift apart.
func describeJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type lm struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var wls []wl
	for _, w := range workloads {
		wls = append(wls, wl{w.name, w.why})
	}
	var lms []lm
	for _, m := range layerMetrics {
		lms = append(lms, lm{m.name, m.unit, m.better})
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []e2eMetric `json:"end_to_end"`
		PerLayer   []lm        `json:"per_layer"`
	}{[]string{"bash", "perfbench/run.sh"}, []string{"perfbench"}, runSeconds, wls, e2eMetrics, lms}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
	return buf.Bytes()
}
