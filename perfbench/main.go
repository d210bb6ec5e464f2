// Command perfbench is the repository benchmark: it runs one named
// workload against the real storage stack (engine, shard router, RPC
// server, HTTP line-protocol gateway), checks every output against an
// oracle built from the generated inputs, and prints the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run). The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds it with
// a build cache inside .bench_build/:
//
//	bash perfbench/run.sh --workload paper-mix --seed 1 --seconds 40 --trace 0
//
// See README.md for the workloads, the metrics and what each per-layer
// metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clients is the closed-loop client count of every workload: each
// client sends its next request only after the previous one was
// acknowledged, as IoTDB-benchmark clients do.
const clients = 2

// workload is one named traffic mix.
type workload struct {
	name, why string
	// run executes the workload for the measured window and fills rep.
	// traced selects the per-layer (traced) run, which measures an
	// untraced and a traced window of the given length one after the
	// other.
	run func(rep *report, seed int64, window time.Duration, traced bool) error
}

var workloads = []workload{
	{"paper-mix", "The paper's IoTDB-benchmark cell: 90% 500-point RPC writes, 10% recent-window queries, LogNormal(1,4) disorder; memtable sorts at query and flush time block the path.", runPaperMix},
	{"lp-ingest", "Write-only line protocol over HTTP into 2 shards, WAL fsync per commit, leveled compaction: parse, queue, WAL, flush encode and compaction work; sorting does little.", runLPIngest},
	{"history", "Read-only narrow ranges, selector aggregates and full scans over a compacted store 10x the memtable budget: block seeks, decode, stats pushdown and fan-out work.", runHistory},
}

func main() {
	name := flag.String("workload", "", "workload name: paper-mix, lp-ingest or history")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Int("seconds", runSeconds, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	describe := flag.Bool("describe", false, "print BENCHMARK.json (workloads and metrics) and exit")
	flag.Parse()
	if *describe {
		os.Stdout.Write(describeJSON())
		return
	}

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (paper-mix|lp-ingest|history), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	rep := newReport(wl.name, *seed, *trace == 1)
	// A traced run splits --seconds between its untraced and traced
	// windows, so it measures as long as an untraced run.
	window := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		window /= 2
	}
	err := wl.run(rep, *seed, window, *trace == 1)
	if err == nil && rep.attempted == 0 {
		err = fmt.Errorf("no request was sent in the window")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		rep.meta["cpu_user_s"] = time.Duration(ru.Utime.Nano()).Seconds()
		rep.meta["cpu_sys_s"] = time.Duration(ru.Stime.Nano()).Seconds()
	}
	// A run whose outputs failed the oracle check still prints its
	// result line, with "correct": false, and exits non-zero.
	rep.print(os.Stdout)
	if !rep.correct {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's result: the metrics that go on the final
// JSON line, the human-readable lines printed before it (every metric
// the workload measures, with sample counts), and the run metadata.
type report struct {
	workload  string
	seed      int64
	traced    bool
	correct   bool
	attempted int64
	failed    int64
	mismatch  []string
	metrics   map[string]metric
	lines     []string
	meta      map[string]any
	rssBase   float64    // resident MB once the inputs were made
	rssPeak   float64    // peak resident MB when the measured work ended
	mu        sync.Mutex // guards correct and mismatch
}

func newReport(name string, seed int64, traced bool) *report {
	r := &report{workload: name, seed: seed, traced: traced, correct: true, metrics: map[string]metric{}, meta: map[string]any{}}
	r.meta["workload"] = name
	r.meta["seed"] = seed
	r.meta["traced"] = traced
	r.meta["go_version"] = runtime.Version()
	r.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.meta["nproc"] = runtime.NumCPU()
	r.meta["cpu_model"] = cpuModel()
	r.meta["clients"] = clients
	return r
}

// set records a metric for the JSON line.
func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// note prints a measured number with its unit and sample count without
// putting it on the JSON line.
func (r *report) note(name, unit string, v float64, samples int) {
	r.lines = append(r.lines, fmt.Sprintf("  %-34s %14.4f %-8s n=%d", name, v, unit, samples))
}

// fail records an oracle mismatch; the run reports correct=false.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.correct = false
	if len(r.mismatch) < 20 {
		r.mismatch = append(r.mismatch, fmt.Sprintf(format, args...))
	}
}

func (r *report) print(f *os.File) {
	mode := "end-to-end (untraced)"
	if r.traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(f, "perfbench %s seed=%d %s\n", r.workload, r.seed, mode)
	meta, _ := json.Marshal(r.meta)
	fmt.Fprintf(f, "meta %s\n", meta)
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(f, "  = %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, m := range r.mismatch {
		fmt.Fprintf(f, "MISMATCH %s\n", m)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	fmt.Fprintln(f, string(out))
}

// cpuModel reads the CPU model name from /proc/cpuinfo (Linux).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procStatusMB reads one memory line of /proc/self/status (Linux),
// such as VmRSS or VmHWM, in MB.
func procStatusMB(key string) (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f", &kb); err != nil {
				return 0, fmt.Errorf("%s: %w", key, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", key)
}

// inputsReady marks the end of input generation: it collects the
// generator's garbage, returns the freed memory to the OS and resets
// the process's resident-memory high-water mark, and keeps the resident
// size left over. peak_rss_mb is the peak above that size, so it covers
// what the program grows by and not the inputs the benchmark holds.
func (r *report) inputsReady() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident size: %w", err)
	}
	base, err := procStatusMB("VmRSS")
	if err != nil {
		return err
	}
	r.rssBase = base
	r.meta["inputs_rss_mb"] = base
	return nil
}

// workDir makes a fresh directory for one store under .bench_build in
// the current directory (the checkout root).
func workDir(tag string) (string, error) {
	root := filepath.Join(".bench_build", "stores")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, tag+"-")
}

// chunkBytesOnDisk sums the sizes of the chunk files (*.gtsf) under dir.
func chunkBytesOnDisk(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".gtsf") {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// stack is one open store a workload runs against. stop shuts it down
// and keeps its files; close also removes them.
type stack interface {
	stop()
	close()
}

// workDone records the peak resident size at the end of the measured
// work, before the output checks, whose full-range reads would
// otherwise set it, and before the restarts.
func (r *report) workDone() error {
	peak, err := procStatusMB("VmHWM")
	r.rssPeak = peak
	return err
}

// setUp opens a store n times (n >= 1), closing all but the last, and
// returns the last with every set-up time in seconds. Each set-up
// starts after a full collection, so garbage left by the previous one
// or by the input generator is not collected on its clock.
func setUp[S stack](n int, open func() (S, time.Duration, error)) (S, []float64, error) {
	var st S
	var times []float64
	for i := range n {
		runtime.GC()
		s, d, err := open()
		if i > 0 {
			st.close()
		}
		if err != nil {
			var zero S
			return zero, nil, fmt.Errorf("setup: %w", err)
		}
		st = s
		times = append(times, d.Seconds())
	}
	return st, times, nil
}

// restarts stops a settled stack and opens its store again n times,
// recovering what the store holds, and returns every restart time in
// seconds; the stack is left stopped.
func restarts[S stack](st S, n int, open func() (S, time.Duration, error)) ([]float64, error) {
	st.stop()
	var times []float64
	for range n {
		runtime.GC()
		s, d, err := open()
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		s.stop()
		times = append(times, d.Seconds())
	}
	return times, nil
}

// setEndToEnd puts the end-to-end metrics on the JSON line: the
// median set-up time, every request's latency, the ingest rate, the
// bytes on disk and written for pts acknowledged points, and the peak
// resident memory above the inputs.
func (r *report) setEndToEnd(setups []float64, ops lat, ingest float64, disk, written, pts int64) {
	r.set("setup_s", "s", median(setups))
	r.meta["setup_s_each"] = setups
	r.setPercentiles(ops)
	r.set("ingest_pts_per_s", "pts/s", ingest)
	r.set("disk_bytes_per_pt", "B/pt", float64(disk)/float64(pts))
	r.set("written_bytes_per_pt", "B/pt", float64(written)/float64(pts))
	r.set("peak_rss_mb", "MB", r.rssPeak-r.rssBase)
}
