package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/labels"
	"repro/internal/query"
	"repro/internal/shard"
)

// history: read-only queries over a store built in setup. Label series
// (hosts × metrics) are loaded through Router.InsertSeries into 2
// shards with time partitions and v3 blocks, then flushed and fully
// compacted. The store (2M points) is 10× the memtable budget (2 ×
// 100,000 points), the program's only in-memory tier, so every read
// decodes chunk files (served from the OS page cache).
const (
	hsHosts       = 8
	hsMetrics     = 5
	hsPoints      = 50000 // per series
	hsLoadBatch   = 1000
	hsPartition   = 10000 * tick
	hsSetups      = 3
	hsNarrowPts   = 500   // narrow query range, points
	hsAggSeries   = 4     // hosts per selector aggregate
	hsAggRangePts = 30000 // selector aggregate range, points
	hsAggWindow   = 10000 * tick
	hsOpsPerSec   = 200 // upper bound on the closed-loop rate
)

// History op mix: shares of narrow range queries and selector
// aggregates; the rest are full-range single-series scans.
const (
	hsNarrowShare = 0.3
	hsAggShare    = 0.6
)

var hsMetricNames = []string{"cpu", "mem", "disk_io", "net_rx", "net_tx"}

// hsSeries is one loaded label series.
type hsSeries struct {
	ls     labels.Set
	host   int
	metric int
	times  []int64
	values []float64
}

// Op kinds of the history workload.
const (
	hsNarrow = iota
	hsAgg
	hsScan
)

var hsKindNames = []string{"narrow", "agg", "scan"}

type hsOp struct {
	kind   int
	series int // narrow/scan: the series; agg: the metric
	group  int // agg: host group (hosts group*hsAggSeries ...)
	lo, hi int64
	agg    query.Aggregator
}

type hsInputs struct {
	series []*hsSeries
	ops    []hsOp
}

func genHistory(seed int64, window time.Duration) *hsInputs {
	in := &hsInputs{}
	r := rand.New(rand.NewSource(seed))
	for h := 0; h < hsHosts; h++ {
		for m := range hsMetricNames {
			s := &hsSeries{
				ls: labels.MustNew(
					labels.Label{Name: "__name__", Value: hsMetricNames[m]},
					labels.Label{Name: "host", Value: fmt.Sprintf("h%02d", h)},
					labels.Label{Name: "dc", Value: fmt.Sprintf("dc%d", h%2)},
				),
				host: h, metric: m,
				times: offHeap[int64](hsPoints), values: offHeap[float64](hsPoints),
			}
			// Sensor noise on top of the signal, so the stored bytes
			// depend on the seed as real data would.
			offset := float64(h*7+m) + r.Float64()
			for i := range s.times {
				s.times[i] = int64(i) * tick
				s.values[i] = signal(s.times[i], offset) + 0.5*r.NormFloat64()
			}
			in.series = append(in.series, s)
		}
	}
	aggs := []query.Aggregator{query.Count, query.Sum, query.Avg, query.Min, query.Max}
	nOps := int(window.Seconds() * hsOpsPerSec)
	for len(in.ops) < nOps {
		x := r.Float64()
		switch {
		case x < hsNarrowShare:
			lo := r.Int63n(hsPoints-hsNarrowPts) * tick
			in.ops = append(in.ops, hsOp{kind: hsNarrow, series: r.Intn(len(in.series)), lo: lo, hi: lo + hsNarrowPts*tick - 1})
		case x < hsNarrowShare+hsAggShare:
			lo := r.Int63n(hsPoints-hsAggRangePts) * tick
			in.ops = append(in.ops, hsOp{kind: hsAgg, series: r.Intn(hsMetrics), group: r.Intn(hsHosts / hsAggSeries),
				lo: lo, hi: lo + hsAggRangePts*tick, agg: aggs[r.Intn(len(aggs))]})
		default:
			in.ops = append(in.ops, hsOp{kind: hsScan, series: r.Intn(len(in.series)), lo: math.MinInt64, hi: math.MaxInt64})
		}
	}
	return in
}

// matchers returns the selector of an op: one series (narrow, scan) or
// one metric over a group of hosts (agg).
func (in *hsInputs) matchers(op hsOp) []*labels.Matcher {
	if op.kind != hsAgg {
		s := in.series[op.series]
		return []*labels.Matcher{
			labels.MustMatcher(labels.MatchEq, "__name__", hsMetricNames[s.metric]),
			labels.MustMatcher(labels.MatchEq, "host", fmt.Sprintf("h%02d", s.host)),
		}
	}
	re := "h0["
	for h := op.group * hsAggSeries; h < (op.group+1)*hsAggSeries; h++ {
		re += fmt.Sprint(h)
	}
	return []*labels.Matcher{
		labels.MustMatcher(labels.MatchEq, "__name__", hsMetricNames[op.series]),
		labels.MustMatcher(labels.MatchRe, "host", re+"]"),
	}
}

// hsStack is one built history store.
type hsStack struct {
	dir    string
	fs     *countingFS
	router *shard.Router
	// Setup outcome: load latencies, the load's ingest rate and drain,
	// and stats after load+flush+compaction.
	loads      lat
	ingestRate float64
	drain      time.Duration
	built      engine.Stats
}

// openHistory opens a store and loads, flushes and compacts it; the
// returned duration is the setup time (open to ready).
func openHistory(in *hsInputs) (*hsStack, time.Duration, error) {
	dir, err := workDir("history")
	if err != nil {
		return nil, 0, err
	}
	st := &hsStack{dir: dir, fs: newCountingFS(nil)}
	start := time.Now()
	st.router, err = shard.Open(shard.Config{
		Config:     engine.Config{Dir: dir, FS: st.fs, PartitionDuration: hsPartition},
		ShardCount: 2,
	})
	if err != nil {
		return nil, 0, err
	}
	// Two loaders, each owning half of the series, batch by batch.
	var wg sync.WaitGroup
	errs := make([]error, clients)
	loads := make([]lat, clients)
	loadStart := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for lo := 0; lo < hsPoints; lo += hsLoadBatch {
				for si := c; si < len(in.series); si += clients {
					s := in.series[si]
					t0 := time.Now()
					if err := st.router.InsertSeries(s.ls, s.times[lo:lo+hsLoadBatch], s.values[lo:lo+hsLoadBatch]); err != nil {
						errs[c] = err
						return
					}
					loads[c] = append(loads[c], time.Since(t0))
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			st.close()
			return nil, 0, err
		}
	}
	lastAck := time.Now()
	st.router.Flush()
	st.router.WaitFlushes()
	settled := time.Now()
	st.ingestRate = float64(len(in.series)*hsPoints) / settled.Sub(loadStart).Seconds()
	st.drain = settled.Sub(lastAck)
	if err := st.router.Compact(); err != nil {
		st.close()
		return nil, 0, err
	}
	if err := st.router.FlushError(); err != nil {
		st.close()
		return nil, 0, err
	}
	elapsed := time.Since(start)
	for _, l := range loads {
		st.loads = append(st.loads, l...)
	}
	st.built = st.router.Stats()
	return st, elapsed, nil
}

func (st *hsStack) stop() {
	if st.router != nil {
		st.router.Close()
		st.router = nil
	}
}

func (st *hsStack) close() {
	st.stop()
	os.RemoveAll(st.dir)
}

type hsWindowResult struct {
	*loopResult
	ops           lat
	returned      [3]int64
	before, after engine.Stats
}

// runHistoryWindow runs the read mix; every result is checked against
// the generated points right after its timer stops.
func runHistoryWindow(rep *report, in *hsInputs, st *hsStack, window time.Duration, tr *tracer) *hsWindowResult {
	res := &hsWindowResult{before: st.router.Stats()}
	var returned [3]atomic.Int64
	res.loopResult = closedLoop(rep, len(in.ops), len(hsKindNames), window, func(c, i int) (int, time.Duration, error) {
		op := in.ops[i]
		ms := in.matchers(op)
		ref := tr.root()
		t0 := time.Now()
		var err error
		var n int64
		var check func() error
		if op.kind == hsAgg {
			var ws []query.WindowResult
			ws, err = st.router.AggregateSeriesGroup(ms, op.lo, op.hi, hsAggWindow, op.agg)
			check = func() error { return in.checkAgg(op, ws) }
			for _, w := range ws {
				n += int64(w.Count)
			}
		} else {
			var sp []shard.SeriesPoints
			sp, err = st.router.QuerySeries(ms, op.lo, op.hi)
			check = func() error { return in.checkRange(op, sp) }
			for _, s := range sp {
				n += int64(len(s.Points))
			}
		}
		t1 := time.Now()
		tr.record("client."+hsKindNames[op.kind], ref, 0, t0, t1)
		if err == nil {
			returned[op.kind].Add(n)
			if err := check(); err != nil {
				rep.fail("%s: %v", hsKindNames[op.kind], err)
			}
		}
		return op.kind, t1.Sub(t0), err
	})
	res.after = st.router.Stats()
	res.ops = res.all()
	for k := range res.returned {
		res.returned[k] = returned[k].Load()
	}
	return res
}

// checkRange verifies a single-series range or scan result against the
// generated points.
func (in *hsInputs) checkRange(op hsOp, sp []shard.SeriesPoints) error {
	if len(sp) != 1 {
		return fmt.Errorf("selector matched %d series, want 1", len(sp))
	}
	s := in.series[op.series]
	lo, hi := max(op.lo, 0)/tick, min(op.hi/tick, hsPoints-1)
	pts := sp[0].Points
	if int64(len(pts)) != hi-lo+1 {
		return fmt.Errorf("%s [%d,%d]: %d points, want %d", s.ls, op.lo, op.hi, len(pts), hi-lo+1)
	}
	for k, p := range pts {
		i := lo + int64(k)
		if p.T != s.times[i] || p.V != s.values[i] {
			return fmt.Errorf("%s: point %d is (%d,%v), want (%d,%v)", s.ls, k, p.T, p.V, s.times[i], s.values[i])
		}
	}
	return nil
}

// checkAgg verifies a selector aggregate against a decode-all
// query.AggregateWindows over the raw points of every matching series,
// merged with query.MergeWindows. Starts and counts must match exactly;
// values exactly for count/min/max and within 1e-9 relative for
// sum/avg, whose float summation order differs between statistics
// pushdown and point-by-point accumulation.
func (in *hsInputs) checkAgg(op hsOp, got []query.WindowResult) error {
	var per [][]query.WindowResult
	for h := op.group * hsAggSeries; h < (op.group+1)*hsAggSeries; h++ {
		s := in.series[h*hsMetrics+op.series]
		lo, hi := op.lo/tick, min((op.hi-1)/tick, hsPoints-1)
		pts := make([]engine.TV, 0, hi-lo+1)
		for i := lo; i <= hi; i++ {
			pts = append(pts, engine.TV{T: s.times[i], V: s.values[i]})
		}
		ws, err := query.AggregateWindows(pts, op.lo, op.hi, hsAggWindow, op.agg)
		if err != nil {
			return err
		}
		per = append(per, ws)
	}
	want, err := query.MergeWindows(op.agg, per)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%v over [%d,%d): %d windows, want %d", op.agg, op.lo, op.hi, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		exact := op.agg == query.Count || op.agg == query.Min || op.agg == query.Max
		if g.Start != w.Start || g.Count != w.Count ||
			(exact && g.Value != w.Value) || (!exact && math.Abs(g.Value-w.Value) > 1e-9*math.Max(1, math.Abs(w.Value))) {
			return fmt.Errorf("%v window %d: got %+v, want %+v", op.agg, i, g, w)
		}
	}
	return nil
}

func runHistory(rep *report, seed int64, window time.Duration, traced bool) error {
	genStart := time.Now()
	in := genHistory(seed, window)
	rep.meta["input_gen_s"] = time.Since(genStart).Seconds()
	rep.meta["scheduled_ops"] = len(in.ops)
	loaded := int64(len(in.series) * hsPoints)

	nSetups := hsSetups
	if traced {
		nSetups = 1
	} else if err := rep.inputsReady(); err != nil {
		return err
	}
	var rates []float64
	st, setups, err := setUp(nSetups, func() (*hsStack, time.Duration, error) {
		s, d, err := openHistory(in)
		if err == nil {
			rates = append(rates, s.ingestRate)
		}
		return s, d, err
	})
	if err != nil {
		return err
	}
	defer st.close()
	disk, err := chunkBytesOnDisk(st.dir)
	if err != nil {
		return err
	}

	if !traced {
		res := runHistoryWindow(rep, in, st, window, nil)
		if err := rep.workDone(); err != nil {
			return err
		}
		rep.attempted = int64(len(res.ops))
		rep.failed = res.failed
		rep.setEndToEnd(setups, res.ops, median(rates), disk, st.fs.written(), loaded)
		rep.meta["load_pts_per_s_each"] = rates
		rep.notePercentiles("load_write", st.loads)
		rep.notePercentiles("query", res.kinds[hsNarrow])
		rep.note("query_pts_per_s", "pts/s", div(float64(res.returned[hsNarrow]), res.kinds[hsNarrow].sum()), len(res.kinds[hsNarrow]))
		rep.notePercentiles("agg", res.kinds[hsAgg])
		rep.notePercentiles("scan", res.kinds[hsScan])
		rep.note("scan_pts_per_s", "pts/s", div(float64(res.returned[hsScan]), res.kinds[hsScan].sum()), len(res.kinds[hsScan]))
		rep.note("failed_op_frac", "frac", div(float64(res.failed), float64(len(res.ops))), len(res.ops))
		rep.meta["ops"] = map[string]int{"narrow": len(res.kinds[hsNarrow]), "agg": len(res.kinds[hsAgg]), "scan": len(res.kinds[hsScan]), "failed": int(res.failed)}
		return nil
	}

	// Traced run: the store is read-only, so the untraced and traced
	// windows share it.
	baseRes := runHistoryWindow(rep, in, st, window, nil)
	tr := newTracer()
	res := runHistoryWindow(rep, in, st, window, tr)
	rep.attempted = int64(len(res.ops) + len(baseRes.ops))
	rep.failed = res.failed + baseRes.failed

	// index.select_us: the window's selectors resolved again, each call
	// timed as a span.
	for _, op := range in.ops[:len(res.ops)] {
		ms := in.matchers(op)
		t0 := time.Now()
		st.router.SelectSeries(ms)
		tr.record("index.select", tr.root(), 0, t0, time.Now())
	}
	spans := tr.snapshot()
	l := newLayers(rep)
	l.set("index.select_us", spansNamed(spans, "index.select").percentile(0.5)*1e3)
	l.set("engine.query_ms_p50", spansNamed(spans, "client.narrow").percentile(0.5))
	// The store's writes happened in setup: flush, sort and compaction
	// counters cover the load; the read counters cover the window.
	l.writeCounters(engine.Stats{}, st.built, loaded, st.drain)
	l.readCounters(res.before, res.after, len(res.ops), len(res.ops))
	l.ioCounters(st.fs, loaded, len(st.loads), spans)
	l.overhead(baseRes.ops, res.ops, float64(len(baseRes.ops)), float64(len(res.ops)), len(spans))

	var chunks []batch
	perSeries := engine.DefaultMemTableSize * 2 / len(in.series)
	for _, s := range in.series {
		chunks = append(chunks, memtableChunks([]batch{{s.times, s.values}}, perSeries)...)
	}
	st.stop()
	l.replay(chunks, nil, st.dir)
	if path, err := tr.write(fmt.Sprintf("history-seed%d", rep.seed)); err == nil {
		rep.meta["trace_file"] = path
	}
	rep.meta["ops"] = map[string]int{"narrow": len(res.kinds[hsNarrow]), "agg": len(res.kinds[hsAgg]), "scan": len(res.kinds[hsScan]), "failed": int(res.failed)}
	return nil
}
