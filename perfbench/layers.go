package main

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/engine"
	"repro/internal/httpgw"
	"repro/internal/memtable"
	"repro/internal/tsfile"
)

// layerMetric is one per-layer metric of the traced run. README.md
// gives, for each, the end-to-end metric and workload it should move.
type layerMetric struct{ name, unit, better string }

// layerMetrics is every per-layer metric, in BENCHMARK.json order. A
// traced run reports all of them; one whose layer does no work on the
// workload reads 0.
var layerMetrics = []layerMetric{
	{"rpc.insert_overhead_ms", "ms", "lower"},
	{"rpc.query_overhead_ms", "ms", "lower"},
	{"httpgw.write_overhead_ms", "ms", "lower"},
	{"httpgw.parse_ns_per_pt", "ns/pt", "lower"},
	{"httpgw.parse_allocs_per_pt", "allocs/pt", "lower"},
	{"httpgw.parse_bytes_per_pt", "B/pt", "lower"},
	{"ingestq.depth_max", "count", "lower"},
	{"ingestq.rejected", "count", "lower"},
	{"shard.fanout_series_per_query", "count", "lower"},
	{"index.select_us", "us", "lower"},
	{"engine.insert_ms_p50", "ms", "lower"},
	{"engine.insert_ms_p99", "ms", "lower"},
	{"engine.query_ms_p50", "ms", "lower"},
	{"engine.lock_waits_per_op", "1/op", "lower"},
	{"engine.lock_wait_p99_us", "us", "lower"},
	{"engine.flushes", "count", "higher"},
	{"engine.flush_ms", "ms", "lower"},
	{"engine.flush_sort_ms", "ms", "lower"},
	{"engine.flush_encode_ms", "ms", "lower"},
	{"engine.flush_write_ms", "ms", "lower"},
	{"engine.flush_unattributed_ms", "ms", "lower"},
	{"engine.drain_ms", "ms", "lower"},
	{"engine.flat_sort_ms", "ms", "lower"},
	{"engine.iface_sort_ms", "ms", "lower"},
	{"engine.sorts_skipped_frac", "frac", "higher"},
	{"engine.unseq_frac", "frac", "lower"},
	{"core.flat_sort_ns_per_pt", "ns/pt", "lower"},
	{"core.iface_sort_ns_per_pt", "ns/pt", "lower"},
	{"memtable.write_ns_per_pt", "ns/pt", "lower"},
	{"encoding.gorilla_enc_ns_per_pt", "ns/pt", "lower"},
	{"encoding.ts2diff_enc_ns_per_pt", "ns/pt", "lower"},
	{"encoding.gorilla_dec_ns_per_pt", "ns/pt", "lower"},
	{"encoding.ts2diff_dec_ns_per_pt", "ns/pt", "lower"},
	{"encoding.dec_allocs_per_block", "allocs", "lower"},
	{"tsfile.read_block_us", "us", "lower"},
	{"tsfile.read_block_allocs", "allocs", "lower"},
	{"tsfile.blocks_decoded_per_query", "count", "lower"},
	{"tsfile.bytes_read_per_query", "B", "lower"},
	{"tsfile.blocks_from_stats_frac", "frac", "higher"},
	{"wal.fsyncs_per_write", "1/op", "lower"},
	{"wal.fsync_ms_p50", "ms", "lower"},
	{"wal.group_size", "count", "higher"},
	{"wal.bytes_per_pt", "B/pt", "lower"},
	{"compaction.passes", "count", "lower"},
	{"compaction.bytes_read_per_pt", "B/pt", "lower"},
	{"io.chunk_bytes_per_pt", "B/pt", "lower"},
	{"trace.overhead_op_p50_frac", "frac", "lower"},
	{"trace.overhead_throughput_frac", "frac", "lower"},
	{"trace.spans", "count", "lower"},
}

// layers fills the per-layer metrics of a traced run; metrics never
// set read 0.
type layers struct{ rep *report }

func newLayers(rep *report) *layers {
	for _, m := range layerMetrics {
		rep.set(m.name, m.unit, 0)
	}
	return &layers{rep: rep}
}

func (l *layers) set(name string, v float64) {
	m, ok := l.rep.metrics[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	m.Value = v
	l.rep.metrics[name] = m
}

// windowAvg turns two snapshots of a running mean into the mean over
// the events between them.
func windowAvg(avgBefore float64, nBefore int, avgAfter float64, nAfter int) float64 {
	if nAfter <= nBefore {
		return 0
	}
	return (avgAfter*float64(nAfter) - avgBefore*float64(nBefore)) / float64(nAfter-nBefore)
}

// writeCounters derives the write-side (C) metrics — flush pipeline,
// sort routing, compaction — from engine stats snapshots taken around
// the work that wrote pts points; drain is the time from the last
// acknowledged write until every flush had settled.
func (l *layers) writeCounters(b, a engine.Stats, pts int64, drain time.Duration) {
	l.set("engine.flushes", float64(a.FlushCount-b.FlushCount))
	flush := windowAvg(b.AvgFlushMillis, b.FlushCount, a.AvgFlushMillis, a.FlushCount)
	sortMs := windowAvg(b.AvgSortMillis, b.FlushCount, a.AvgSortMillis, a.FlushCount)
	enc := windowAvg(b.AvgEncodeMillis, b.FlushCount, a.AvgEncodeMillis, a.FlushCount)
	wr := windowAvg(b.AvgWriteMillis, b.FlushCount, a.AvgWriteMillis, a.FlushCount)
	l.set("engine.flush_ms", flush)
	l.set("engine.flush_sort_ms", sortMs)
	l.set("engine.flush_encode_ms", enc)
	l.set("engine.flush_write_ms", wr)
	l.set("engine.flush_unattributed_ms", flush-sortMs-enc-wr)
	l.set("engine.drain_ms", float64(drain)/1e6)
	l.set("engine.flat_sort_ms", a.FlatSortMillis-b.FlatSortMillis)
	l.set("engine.iface_sort_ms", a.InterfaceSortMillis-b.InterfaceSortMillis)
	skipped := float64(a.SortsSkipped - b.SortsSkipped)
	l.set("engine.sorts_skipped_frac", div(skipped, skipped+float64(a.FlatSorts-b.FlatSorts+a.InterfaceSorts-b.InterfaceSorts)))
	unseq := float64(a.UnseqPoints - b.UnseqPoints)
	l.set("engine.unseq_frac", div(unseq, unseq+float64(a.SeqPoints-b.SeqPoints)))
	l.set("wal.group_size", div(float64(a.WALCommits-b.WALCommits), float64(a.WALSyncs-b.WALSyncs)))
	l.set("compaction.passes", float64(a.CompactionPasses-b.CompactionPasses))
	l.set("compaction.bytes_read_per_pt", div(float64(a.CompactionBytesRead-b.CompactionBytesRead), float64(pts)))
}

// readCounters derives the request-side (C) metrics — lock waits,
// block reads, selector fan-out — from engine stats snapshots taken
// around the measured window; ops is its request count, reads the read
// requests among them.
func (l *layers) readCounters(b, a engine.Stats, ops, reads int) {
	l.set("engine.lock_waits_per_op", div(float64(a.LockWaits-b.LockWaits), float64(ops)))
	l.set("engine.lock_wait_p99_us", a.P99LockWaitMicros)
	l.set("tsfile.blocks_decoded_per_query", div(float64(a.BlocksDecoded-b.BlocksDecoded), float64(reads)))
	l.set("tsfile.bytes_read_per_query", div(float64(a.BytesRead-b.BytesRead), float64(reads)))
	fromStats := float64(a.BlocksFromStats - b.BlocksFromStats)
	l.set("tsfile.blocks_from_stats_frac", div(fromStats, fromStats+float64(a.BlocksDecoded-b.BlocksDecoded)))
	l.set("shard.fanout_series_per_query", div(float64(a.FanoutSeries-b.FanoutSeries), float64(a.SelectorQueries-b.SelectorQueries)))
}

// ioCounters derives the WAL and chunk-file metrics from the counting
// filesystem and its spans. writes is the write-request count.
func (l *layers) ioCounters(fs *countingFS, pts int64, writes int, spans []span) {
	l.set("wal.fsyncs_per_write", div(float64(fs.syncs[ioWAL].Load()), float64(writes)))
	l.set("wal.fsync_ms_p50", spansNamed(spans, "fs.sync.wal").percentile(0.5))
	l.set("wal.bytes_per_pt", div(float64(fs.bytes[ioWAL].Load()), float64(pts)))
	l.set("io.chunk_bytes_per_pt", div(float64(fs.bytes[ioChunk].Load()), float64(pts)))
}

// overhead reports the tracing overhead: the traced window's op p50
// and throughput against the untraced window's over the same inputs.
func (l *layers) overhead(baseOps, ops lat, baseTput, tput float64, spans int) {
	b := baseOps.percentile(0.5)
	l.set("trace.overhead_op_p50_frac", div(ops.percentile(0.5)-b, b))
	l.set("trace.overhead_throughput_frac", div(baseTput-tput, baseTput))
	l.set("trace.spans", float64(spans))
}

// memtableChunks regroups a series' batches (arrival order) into the
// chunks a memtable of chunkPts points per series would hold.
func memtableChunks(bs []batch, chunkPts int) []batch {
	var out []batch
	var cur batch
	for _, b := range bs {
		for len(b.times) > 0 {
			k := min(chunkPts-len(cur.times), len(b.times))
			cur.times = append(cur.times, b.times[:k]...)
			cur.values = append(cur.values, b.values[:k]...)
			b = batch{b.times[k:], b.values[k:]}
			if len(cur.times) == chunkPts {
				out = append(out, cur)
				cur = batch{}
			}
		}
	}
	if len(cur.times) > 0 {
		out = append(out, cur)
	}
	return out
}

// replayBudget caps the points one replay kind visits, so a replay
// stays a small share of the traced run.
const replayBudget = 2 << 20

// allocMeter measures allocations of a code region exactly via the
// runtime's cumulative malloc counters.
type allocMeter struct{ mallocs, bytes uint64 }

func startAlloc() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{ms.Mallocs, ms.TotalAlloc}
}

func (m allocMeter) stop() (mallocs, bytes float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs - m.mallocs), float64(ms.TotalAlloc - m.bytes)
}

// replay feeds the run's own inputs through single modules' public
// functions (source R): chunks are per-series arrival-order memtable
// chunks, payloads the line-protocol bodies the run sent (nil when the
// workload sends none), storeDir the settled store whose blocks are
// read back. ns/pt figures are trajectory data; allocation figures are
// exact counts.
func (l *layers) replay(chunks []batch, payloads [][]byte, storeDir string) {
	// Keep whole chunks up to the budget, in input order.
	var sel []batch
	n := 0
	for _, c := range chunks {
		if n >= replayBudget {
			break
		}
		sel = append(sel, c)
		n += len(c.times)
	}
	if n == 0 {
		return
	}
	runtime.GC()

	// Memtable insert: one memtable per chunk, points in arrival order.
	start := time.Now()
	for _, c := range sel {
		m := memtable.New(0)
		for i, t := range c.times {
			m.Write("s", t, c.values[i])
		}
	}
	l.set("memtable.write_ns_per_pt", float64(time.Since(start).Nanoseconds())/float64(n))

	// Sort kernels on copies of the arrival-order chunks.
	sortWith := func(f func(ts []int64, vs []float64)) float64 {
		var total time.Duration
		for _, c := range sel {
			ts, vs := slices.Clone(c.times), slices.Clone(c.values)
			t0 := time.Now()
			f(ts, vs)
			total += time.Since(t0)
		}
		return float64(total.Nanoseconds()) / float64(n)
	}
	l.set("core.flat_sort_ns_per_pt", sortWith(func(ts []int64, vs []float64) { core.SortFlat(ts, vs, core.FlatOptions{}) }))
	l.set("core.iface_sort_ns_per_pt", sortWith(func(ts []int64, vs []float64) { core.BackwardSort(core.NewPairs(ts, vs), core.Options{}) }))

	// Codecs on the sorted chunks, cut into flush-sized blocks.
	var blocks []batch
	for _, c := range sel {
		ts, vs := slices.Clone(c.times), slices.Clone(c.values)
		core.SortFlat(ts, vs, core.FlatOptions{})
		for lo := 0; lo < len(ts); lo += engine.DefaultBlockPoints {
			hi := min(lo+engine.DefaultBlockPoints, len(ts))
			blocks = append(blocks, batch{ts[lo:hi], vs[lo:hi]})
		}
	}
	tsEnc := make([][]byte, len(blocks))
	valEnc := make([][]byte, len(blocks))
	start = time.Now()
	for i, b := range blocks {
		tsEnc[i] = encoding.AppendTS2Diff(nil, b.times)
	}
	l.set("encoding.ts2diff_enc_ns_per_pt", float64(time.Since(start).Nanoseconds())/float64(n))
	start = time.Now()
	for i, b := range blocks {
		valEnc[i] = encoding.AppendGorilla(nil, b.values)
	}
	l.set("encoding.gorilla_enc_ns_per_pt", float64(time.Since(start).Nanoseconds())/float64(n))
	runtime.GC()
	am := startAlloc()
	start = time.Now()
	for _, e := range tsEnc {
		encoding.DecodeTS2Diff(e)
	}
	tsDec := time.Since(start)
	start = time.Now()
	for _, e := range valEnc {
		encoding.DecodeGorilla(e)
	}
	valDec := time.Since(start)
	mallocs, _ := am.stop()
	l.set("encoding.ts2diff_dec_ns_per_pt", float64(tsDec.Nanoseconds())/float64(n))
	l.set("encoding.gorilla_dec_ns_per_pt", float64(valDec.Nanoseconds())/float64(n))
	l.set("encoding.dec_allocs_per_block", mallocs/float64(len(blocks)))

	l.replayBlocks(storeDir)
	l.replayParse(payloads)
}

// replayBlocks reads back blocks of the settled store's chunk files
// through tsfile.ReadBlock.
func (l *layers) replayBlocks(storeDir string) {
	var files []string
	filepath.WalkDir(storeDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".gtsf") {
			files = append(files, path)
		}
		return nil
	})
	var readers []*tsfile.Reader
	defer func() {
		for _, r := range readers {
			r.Close()
		}
	}()
	type job struct {
		r *tsfile.Reader
		c tsfile.ChunkMeta
		b tsfile.BlockMeta
	}
	var jobs []job
	pts := 0
	for _, f := range files {
		r, err := tsfile.Open(f)
		if err != nil {
			continue
		}
		readers = append(readers, r)
		for _, c := range r.Index() {
			for _, b := range c.Blocks {
				if pts < replayBudget {
					jobs = append(jobs, job{r, c, b})
					pts += b.Count
				}
			}
		}
	}
	if len(jobs) == 0 {
		return
	}
	runtime.GC()
	am := startAlloc()
	start := time.Now()
	for _, j := range jobs {
		j.r.ReadBlock(j.c, j.b)
	}
	elapsed := time.Since(start)
	mallocs, _ := am.stop()
	l.set("tsfile.read_block_us", float64(elapsed.Microseconds())/float64(len(jobs)))
	l.set("tsfile.read_block_allocs", mallocs/float64(len(jobs)))
}

// replayParse runs the line-protocol parser over the run's payloads.
func (l *layers) replayParse(payloads [][]byte) {
	if len(payloads) == 0 {
		return
	}
	now := func() int64 { return 0 }
	pts := 0
	var sel [][]byte
	for _, p := range payloads {
		if pts >= replayBudget/4 {
			break
		}
		parsed, err := httpgw.ParseLineProtocol(p, now)
		if err != nil {
			continue
		}
		pts += len(parsed)
		sel = append(sel, p)
	}
	runtime.GC()
	am := startAlloc()
	start := time.Now()
	for _, p := range sel {
		httpgw.ParseLineProtocol(p, now)
	}
	elapsed := time.Since(start)
	mallocs, bytes := am.stop()
	l.set("httpgw.parse_ns_per_pt", float64(elapsed.Nanoseconds())/float64(pts))
	l.set("httpgw.parse_allocs_per_pt", mallocs/float64(pts))
	l.set("httpgw.parse_bytes_per_pt", bytes/float64(pts))
}
