package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/ingestq"
	"repro/internal/rpc"
)

// paper-mix: the paper's IoTDB-benchmark cell. 90% writes of 500-point
// batches and 10% recent-window raw range queries over 8 devices,
// LogNormal(1,4) arrival disorder, over RPC to an in-process server on
// loopback in front of a bare engine with the shipped defaults (WAL
// off, async flush, 100,000-point memtable).
const (
	pmDevices    = 8
	pmBatch      = 500
	pmWritePct   = 0.9
	pmWindow     = 50 * tick // query: time > newest_acked - window
	pmOpsPerSec  = 4500      // upper bound on the closed-loop rate
	pmMaxOps     = 40000     // bounds the inputs to ~290 MB
	pmRestarts   = 31
	pmDeviceName = "root.sg.d%d.s0"
)

// pmOp is one scheduled request: a write of the device's next batch
// (batch >= 0) or a recent-window query (batch < 0).
type pmOp struct {
	device int
	batch  int
}

type pmInputs struct {
	devices []*series
	ops     []pmOp
}

// genPaperMix builds the op schedule and every device's batches. Writes
// visit the devices in a fresh random order each round, so every
// device receives the same number of batches.
func genPaperMix(seed int64, window time.Duration) *pmInputs {
	r := rand.New(rand.NewSource(seed))
	nOps := min(int(window.Seconds()*pmOpsPerSec), pmMaxOps)
	in := &pmInputs{}
	next := make([]int, pmDevices)
	var round []int
	for len(in.ops) < nOps {
		if r.Float64() >= pmWritePct {
			in.ops = append(in.ops, pmOp{device: r.Intn(pmDevices), batch: -1})
			continue
		}
		if len(round) == 0 {
			round = r.Perm(pmDevices)
		}
		d := round[0]
		round = round[1:]
		in.ops = append(in.ops, pmOp{device: d, batch: next[d]})
		next[d]++
	}
	in.devices = make([]*series, pmDevices)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for d := range in.devices {
		wg.Add(1)
		sem <- struct{}{}
		go func(d int) {
			defer func() { <-sem; wg.Done() }()
			dr := rand.New(rand.NewSource(seed*1000003 + int64(d)))
			order := arrivalOrder(next[d]*pmBatch, logNormal(dr, 1, 4))
			in.devices[d] = newSeries(fmt.Sprintf(pmDeviceName, d), float64(d*3), order, pmBatch)
		}(d)
	}
	wg.Wait()
	return in
}

// pmStack is one open paper-mix store: engine, RPC server and clients.
type pmStack struct {
	dir     string
	fs      *countingFS
	eng     *engine.Engine
	queue   *ingestq.Queue
	srv     *rpc.Server
	clients []*rpc.Client
}

// openPaperMix opens the store at dir, or a fresh one when dir is "",
// and brings up its server and clients; the duration is the set-up
// time (open to ready).
func openPaperMix(dir string, tr *tracer) (*pmStack, time.Duration, error) {
	if dir == "" {
		var err error
		if dir, err = workDir("paper-mix"); err != nil {
			return nil, 0, err
		}
	}
	var err error
	st := &pmStack{dir: dir, fs: newCountingFS(tr)}
	start := time.Now()
	st.eng, err = engine.Open(engine.Config{Dir: dir, FS: st.fs})
	if err != nil {
		return nil, 0, err
	}
	var backend rpc.Backend = st.eng
	if tr != nil {
		backend = tracedBackend{in: st.eng, tr: tr}
	}
	st.srv = rpc.NewServer(backend)
	st.queue = ingestq.New(0, 0)
	st.srv.SetIngestQueue(st.queue)
	addr, err := st.srv.Listen("127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, 0, err
	}
	for range clients {
		c, err := rpc.Dial(addr)
		if err != nil {
			st.close()
			return nil, 0, err
		}
		st.clients = append(st.clients, c)
	}
	return st, time.Since(start), nil
}

// close tears the stack down and removes its directory.
func (st *pmStack) close() {
	st.stop()
	os.RemoveAll(st.dir)
}

// stop closes clients, server, queue and engine, keeping the files.
func (st *pmStack) stop() {
	for _, c := range st.clients {
		c.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.queue != nil {
		st.queue.Close()
	}
	if st.eng != nil {
		st.eng.Close()
	}
	st.clients, st.srv, st.queue, st.eng = nil, nil, nil, nil
}

// Op kinds of the paper-mix workload.
const (
	pmWrite = iota
	pmQuery
)

// pmWindowResult is what one measured window produced.
type pmWindowResult struct {
	*loopResult
	writes, queries, ops lat
	ackedPts             int64
	returnedPts          int64
	elapsed              time.Duration // first write → flushes settled
	drain                time.Duration // last ack → flushes settled
	depthMax             int
	before, after        engine.Stats
	qBefore, qAfter      ingestq.Stats
}

func runPaperMixWindow(rep *report, in *pmInputs, st *pmStack, window time.Duration, tr *tracer) *pmWindowResult {
	res := &pmWindowResult{before: st.eng.Stats(), qBefore: st.queue.Stats()}
	var acked, returned atomic.Int64
	stopSampler := sampleDepth(st.queue, tr != nil, &res.depthMax)
	res.loopResult = closedLoop(rep, len(in.ops), 2, window, func(c, i int) (int, time.Duration, error) {
		cl := st.clients[c]
		op := in.ops[i]
		dev := in.devices[op.device]
		ref := tr.root()
		if op.batch >= 0 {
			b := dev.batches[op.batch]
			key := callKey{dev.name, b.times[0], 0}
			tr.expect(key, ref)
			t0 := time.Now()
			err := cl.InsertBatch(dev.name, b.times, b.values)
			t1 := time.Now()
			tr.record("client.write", ref, 0, t0, t1)
			tr.done(key)
			if err == nil {
				dev.ackTimes(b.times)
				acked.Add(int64(len(b.times)))
			}
			return pmWrite, t1.Sub(t0), err
		}
		minT, want := dev.recentAcked(pmWindow)
		key := callKey{dev.name, minT, math.MaxInt64}
		tr.expect(key, ref)
		t0 := time.Now()
		pts, err := cl.Query(dev.name, minT, math.MaxInt64)
		t1 := time.Now()
		tr.record("client.query", ref, 0, t0, t1)
		tr.done(key)
		if err == nil {
			returned.Add(int64(len(pts)))
			if err := dev.checkPoints(pts, minT, math.MaxInt64, want); err != nil {
				rep.fail("query: %v", err)
			}
		}
		return pmQuery, t1.Sub(t0), err
	})
	st.eng.WaitFlushes()
	settled := time.Now()
	tr.record("engine.settle", tr.root(), 0, res.lastAck, settled)
	stopSampler()
	res.elapsed = settled.Sub(res.start)
	res.drain = settled.Sub(res.lastAck)
	res.writes, res.queries, res.ops = res.kinds[pmWrite], res.kinds[pmQuery], res.all()
	res.ackedPts = acked.Load()
	res.returnedPts = returned.Load()
	res.after = st.eng.Stats()
	res.qAfter = st.queue.Stats()
	return res
}

// sampleDepth polls the dispatch queue depth every millisecond in the
// traced run and keeps the maximum; the returned stop waits for the
// sampler to exit.
func sampleDepth(q *ingestq.Queue, on bool, out *int) (stop func()) {
	if !on {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				*out = max(*out, q.Stats().Depth)
			}
		}
	}()
	return func() { close(quit); <-done }
}

func runPaperMix(rep *report, seed int64, window time.Duration, traced bool) error {
	genStart := time.Now()
	in := genPaperMix(seed, window)
	rep.meta["input_gen_s"] = time.Since(genStart).Seconds()
	rep.meta["scheduled_ops"] = len(in.ops)

	if !traced {
		if err := rep.inputsReady(); err != nil {
			return err
		}
		// setup_s is the restart on the settled store below: an empty
		// store opens in under a millisecond, mostly loopback connects
		// whose latency shifts from process to process.
		st, fresh, err := openPaperMix("", nil)
		if err != nil {
			return err
		}
		defer st.close()
		rep.meta["fresh_setup_s"] = fresh.Seconds()
		res := runPaperMixWindow(rep, in, st, window, nil)
		if err := rep.workDone(); err != nil {
			return err
		}
		verifySeries(rep, in.devices, st.eng)
		written := st.fs.written()
		// Flush the memtable's remainder before measuring the
		// footprint, so that every live point is on disk.
		st.eng.Flush()
		st.eng.WaitFlushes()
		disk, err := chunkBytesOnDisk(st.dir)
		if err != nil {
			return err
		}
		restartTimes, err := restarts(st, pmRestarts, func() (*pmStack, time.Duration, error) { return openPaperMix(st.dir, nil) })
		if err != nil {
			return err
		}
		rep.attempted = int64(len(res.ops))
		rep.failed = res.failed
		rep.setEndToEnd(restartTimes, res.ops, float64(res.ackedPts)/res.elapsed.Seconds(), disk, written, res.ackedPts)
		rep.notePercentiles("write", res.writes)
		rep.notePercentiles("query", res.queries)
		rep.note("query_pts_per_s", "pts/s", div(float64(res.returnedPts), res.queries.sum()), len(res.queries))
		rep.note("failed_op_frac", "frac", div(float64(res.failed), float64(len(res.ops))), len(res.ops))
		rep.meta["ops"] = map[string]int{"write": len(res.writes), "query": len(res.queries), "failed": int(res.failed)}
		rep.meta["window_s"] = res.elapsed.Seconds()
		return nil
	}

	// Traced run: an untraced window on a fresh store first, then the
	// traced window on another, so the tracing overhead is the
	// difference between two windows over identical inputs.
	base, _, err := openPaperMix("", nil)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	baseRes := runPaperMixWindow(rep, in, base, window, nil)
	verifySeries(rep, in.devices, base.eng)
	base.close()
	for _, dev := range in.devices {
		dev.reset()
	}

	tr := newTracer()
	st, _, err := openPaperMix("", tr)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer st.close()
	res := runPaperMixWindow(rep, in, st, window, tr)
	verifySeries(rep, in.devices, st.eng)
	rep.attempted = int64(len(res.ops) + len(baseRes.ops))
	rep.failed = res.failed + baseRes.failed

	spans := tr.snapshot()
	self := selfTimes(spans)
	l := newLayers(rep)
	l.set("rpc.insert_overhead_ms", selfOf(spans, self, "client.write").percentile(0.5))
	l.set("rpc.query_overhead_ms", selfOf(spans, self, "client.query").percentile(0.5))
	l.set("ingestq.depth_max", float64(res.depthMax))
	l.set("ingestq.rejected", float64(res.qAfter.Rejected-res.qBefore.Rejected))
	ins := spansNamed(spans, "backend.insert")
	l.set("engine.insert_ms_p50", ins.percentile(0.5))
	l.set("engine.insert_ms_p99", ins.percentile(0.99))
	l.set("engine.query_ms_p50", spansNamed(spans, "backend.query").percentile(0.5))
	l.writeCounters(res.before, res.after, res.ackedPts, res.drain)
	l.readCounters(res.before, res.after, len(res.ops), len(res.queries))
	l.ioCounters(st.fs, res.ackedPts, len(res.writes), spans)
	l.overhead(baseRes.ops, res.ops, float64(baseRes.ackedPts)/baseRes.elapsed.Seconds(), float64(res.ackedPts)/res.elapsed.Seconds(), len(spans))

	var chunks []batch
	for _, dev := range in.devices {
		chunks = append(chunks, memtableChunks(dev.batches, engine.DefaultMemTableSize/pmDevices)...)
	}
	st.stop()
	l.replay(chunks, nil, st.dir)
	if path, err := tr.write(fmt.Sprintf("paper-mix-seed%d", rep.seed)); err == nil {
		rep.meta["trace_file"] = path
	}
	rep.meta["ops"] = map[string]int{"write": len(res.writes), "query": len(res.queries), "failed": int(res.failed)}
	return nil
}
