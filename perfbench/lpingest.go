package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/httpgw"
	"repro/internal/ingestq"
	"repro/internal/shard"
)

// lp-ingest: write-only InfluxDB line protocol through POST /write on
// the HTTP gateway, in front of a 2-shard router behind one ingest
// queue, with WALSync=always and time partitions on. The memtable keeps
// its 100,000-point default per shard, about 2,000 points per series;
// a partition spans 8,000 points per series, so about four flush files
// land in each partition's L0 and trigger leveled compaction. It is
// the only workload with a WAL; countingFS models the WAL's fsync
// (walSyncModel).
const (
	lpHosts         = 20
	lpLinesPerHost  = 15 // lines per host per payload: 300-line payloads
	lpPayloadPerSec = 150
	lpPartition     = 8000 * tick
	lpRestarts      = 31
)

var lpFields = []string{"usage_user", "usage_system", "usage_idle", "iowait", "steal"}

// lpSensor is the engine sensor the gateway derives for a host and
// field: measurement, tags sorted by name, then the field.
func lpSensor(host, field int) string {
	return fmt.Sprintf("cpu,dc=dc%d,host=h%02d.%s", host%2, host, lpFields[field])
}

type lpInputs struct {
	payloads [][]byte
	times    [][][]int64 // per payload, per host: the timestamps it carries
	series   []*series   // host*len(lpFields)+field
}

// genLPIngest renders the payloads. Each host emits points at every
// tick in AbsNormal(1,2) arrival order; a payload carries the next 15
// lines of every host, interleaved, each line with all five fields.
func genLPIngest(seed int64, window time.Duration) *lpInputs {
	nPayloads := int(window.Seconds() * lpPayloadPerSec)
	perHost := nPayloads * lpLinesPerHost
	in := &lpInputs{}
	orders := make([][]int32, lpHosts)
	for h := range orders {
		r := rand.New(rand.NewSource(seed*1000003 + int64(h)))
		orders[h] = arrivalOrder(perHost, absNormal(r, 1, 2))
		for f := range lpFields {
			in.series = append(in.series, &series{name: lpSensor(h, f), offset: float64(h*3) + float64(f)/2, n: perHost, acked: offHeap[bool](perHost), newest: -1})
		}
	}
	var buf []byte
	for p := 0; p < nPayloads; p++ {
		buf = buf[:0]
		ts := make([][]int64, lpHosts)
		for l := 0; l < lpLinesPerHost; l++ {
			for h := 0; h < lpHosts; h++ {
				t := int64(orders[h][p*lpLinesPerHost+l]) * tick
				ts[h] = append(ts[h], t)
				buf = fmt.Appendf(buf, "cpu,host=h%02d,dc=dc%d ", h, h%2)
				for f := range lpFields {
					if f > 0 {
						buf = append(buf, ',')
					}
					buf = append(buf, lpFields[f]...)
					buf = append(buf, '=')
					buf = strconv.AppendFloat(buf, signal(t, in.series[h*len(lpFields)+f].offset), 'g', -1, 64)
				}
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, t, 10)
				buf = append(buf, '\n')
			}
		}
		payload := offHeap[byte](len(buf))
		copy(payload, buf)
		in.payloads = append(in.payloads, payload)
		in.times = append(in.times, ts)
	}
	return in
}

// lpStack is one open lp-ingest store: router, queue, gateway, HTTP
// server and the clients' transport.
type lpStack struct {
	dir    string
	fs     *countingFS
	router *shard.Router
	queue  *ingestq.Queue
	gw     *httpgw.Gateway
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
}

// openLPIngest opens the store at dir, or a fresh one when dir is "",
// and brings up its queue, gateway and HTTP server; the duration is the
// set-up time (open to ready).
func openLPIngest(dir string, tr *tracer) (*lpStack, time.Duration, error) {
	if dir == "" {
		var err error
		if dir, err = workDir("lp-ingest"); err != nil {
			return nil, 0, err
		}
	}
	var err error
	st := &lpStack{dir: dir, fs: newCountingFS(tr)}
	start := time.Now()
	st.router, err = shard.Open(shard.Config{
		Config: engine.Config{
			Dir:               dir,
			FS:                st.fs,
			WAL:               true,
			WALSync:           engine.WALSyncAlways,
			PartitionDuration: lpPartition,
		},
		ShardCount: 2,
	})
	if err != nil {
		return nil, 0, err
	}
	st.queue = ingestq.New(0, 0)
	var backend httpgw.Backend = st.router
	if tr != nil {
		backend = tracedRouter{tracedBackend{in: st.router, tr: tr}, st.router}
	}
	st.gw = httpgw.New(backend, st.queue)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, 0, err
	}
	st.srv = &http.Server{Handler: st.gw.Handler()}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	st.url = "http://" + ln.Addr().String() + "/write"
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}}
	return st, time.Since(start), nil
}

// stop shuts the HTTP server, gateway, queue and router down, keeping
// the files.
func (st *lpStack) stop() {
	if st.srv != nil {
		st.srv.Close()
		<-st.served
		st.client.CloseIdleConnections()
	}
	if st.gw != nil {
		st.gw.Close()
	}
	if st.queue != nil {
		st.queue.Close()
	}
	if st.router != nil {
		st.router.Close()
	}
	st.srv, st.gw, st.queue, st.router = nil, nil, nil, nil
}

func (st *lpStack) close() {
	st.stop()
	os.RemoveAll(st.dir)
}

type lpWindowResult struct {
	*loopResult
	writes          lat
	ackedPts        int64
	elapsed, drain  time.Duration
	depthMax        int
	before, after   engine.Stats
	qBefore, qAfter ingestq.Stats
}

// post sends one payload and reports whether it was acknowledged (204).
func (st *lpStack) post(body []byte) error {
	resp, err := st.client.Post(st.url, "text/plain", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("POST /write: %s", resp.Status)
	}
	return nil
}

func runLPIngestWindow(rep *report, in *lpInputs, st *lpStack, window time.Duration, tr *tracer) *lpWindowResult {
	res := &lpWindowResult{before: st.router.Stats(), qBefore: st.queue.Stats()}
	var acked atomic.Int64
	stopSampler := sampleDepth(st.queue, tr != nil, &res.depthMax)
	res.loopResult = closedLoop(rep, len(in.payloads), 1, window, func(c, i int) (int, time.Duration, error) {
		ref := tr.root()
		if tr != nil {
			for h, ts := range in.times[i] {
				for f := range lpFields {
					tr.expect(callKey{lpSensor(h, f), ts[0], 0}, ref)
				}
			}
		}
		t0 := time.Now()
		err := st.post(in.payloads[i])
		t1 := time.Now()
		tr.record("client.post_write", ref, 0, t0, t1)
		if tr != nil {
			for h, ts := range in.times[i] {
				for f := range lpFields {
					tr.done(callKey{lpSensor(h, f), ts[0], 0})
				}
			}
		}
		if err == nil {
			for h, ts := range in.times[i] {
				for f := range lpFields {
					in.series[h*len(lpFields)+f].ackTimes(ts)
				}
				acked.Add(int64(len(ts) * len(lpFields)))
			}
		}
		return 0, t1.Sub(t0), err
	})
	st.router.WaitFlushes()
	settled := time.Now()
	tr.record("engine.settle", tr.root(), 0, res.lastAck, settled)
	stopSampler()
	res.writes = res.kinds[0]
	res.elapsed = settled.Sub(res.start)
	res.drain = settled.Sub(res.lastAck)
	res.ackedPts = acked.Load()
	res.after = st.router.Stats()
	res.qAfter = st.queue.Stats()
	return res
}

func runLPIngest(rep *report, seed int64, window time.Duration, traced bool) error {
	genStart := time.Now()
	in := genLPIngest(seed, window)
	rep.meta["input_gen_s"] = time.Since(genStart).Seconds()
	rep.meta["scheduled_payloads"] = len(in.payloads)
	rep.meta["wal_sync_model_s"] = walSyncModel.Seconds()

	if !traced {
		if err := rep.inputsReady(); err != nil {
			return err
		}
		// setup_s is the restart on the settled store below: an empty
		// store opens in under a millisecond, mostly loopback connects
		// whose latency shifts from process to process.
		st, fresh, err := openLPIngest("", nil)
		if err != nil {
			return err
		}
		defer st.close()
		rep.meta["fresh_setup_s"] = fresh.Seconds()
		res := runLPIngestWindow(rep, in, st, window, nil)
		if err := rep.workDone(); err != nil {
			return err
		}
		verifySeries(rep, in.series, st.router)
		written := st.fs.written()
		// Flush the memtables' remainder and compact fully before
		// measuring the footprint, so that every live point is on disk
		// and the footprint does not depend on how far leveled
		// compaction had got when the window ended.
		st.router.Flush()
		st.router.WaitFlushes()
		if err := st.router.Compact(); err != nil {
			return err
		}
		disk, err := chunkBytesOnDisk(st.dir)
		if err != nil {
			return err
		}
		restartTimes, err := restarts(st, lpRestarts, func() (*lpStack, time.Duration, error) { return openLPIngest(st.dir, nil) })
		if err != nil {
			return err
		}
		rep.attempted = int64(len(res.writes))
		rep.failed = res.failed
		rep.setEndToEnd(restartTimes, res.writes, float64(res.ackedPts)/res.elapsed.Seconds(), disk, written, res.ackedPts)
		rep.notePercentiles("write", res.writes)
		rep.note("failed_op_frac", "frac", div(float64(res.failed), float64(len(res.writes))), len(res.writes))
		rep.note("compaction_passes", "count", float64(res.after.CompactionPasses-res.before.CompactionPasses), 1)
		rep.note("wal_fsyncs_per_write", "1/op", div(float64(res.after.WALSyncs-res.before.WALSyncs), float64(len(res.writes))), len(res.writes))
		rep.meta["ops"] = map[string]int{"write": len(res.writes), "failed": int(res.failed)}
		rep.meta["window_s"] = res.elapsed.Seconds()
		return nil
	}

	base, _, err := openLPIngest("", nil)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	baseRes := runLPIngestWindow(rep, in, base, window, nil)
	verifySeries(rep, in.series, base.router)
	base.close()
	for _, s := range in.series {
		s.reset()
	}

	tr := newTracer()
	st, _, err := openLPIngest("", tr)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer st.close()
	res := runLPIngestWindow(rep, in, st, window, tr)
	verifySeries(rep, in.series, st.router)
	rep.attempted = int64(len(res.writes) + len(baseRes.writes))
	rep.failed = res.failed + baseRes.failed

	spans := tr.snapshot()
	self := selfTimes(spans)
	l := newLayers(rep)
	l.set("httpgw.write_overhead_ms", selfOf(spans, self, "client.post_write").percentile(0.5))
	l.set("ingestq.depth_max", float64(res.depthMax))
	l.set("ingestq.rejected", float64(res.qAfter.Rejected-res.qBefore.Rejected))
	ins := spansNamed(spans, "backend.insert")
	l.set("engine.insert_ms_p50", ins.percentile(0.5))
	l.set("engine.insert_ms_p99", ins.percentile(0.99))
	l.writeCounters(res.before, res.after, res.ackedPts, res.drain)
	l.readCounters(res.before, res.after, len(res.writes), 0)
	l.ioCounters(st.fs, res.ackedPts, len(res.writes), spans)
	l.overhead(baseRes.writes, res.writes, float64(baseRes.ackedPts)/baseRes.elapsed.Seconds(), float64(res.ackedPts)/res.elapsed.Seconds(), len(spans))

	// Replay chunks: each series' points in arrival order, cut at its
	// share of the two shards' memtables.
	var chunks []batch
	perSeries := engine.DefaultMemTableSize * 2 / len(in.series)
	for si, s := range in.series {
		var bs []batch
		for _, perHost := range in.times[:res.sent] {
			ts := perHost[si/len(lpFields)]
			bs = append(bs, batch{ts, valuesFor(ts, s.offset)})
		}
		chunks = append(chunks, memtableChunks(bs, perSeries)...)
	}
	st.stop()
	l.replay(chunks, in.payloads[:res.sent], st.dir)
	if path, err := tr.write(fmt.Sprintf("lp-ingest-seed%d", rep.seed)); err == nil {
		rep.meta["trace_file"] = path
	}
	rep.meta["ops"] = map[string]int{"write": len(res.writes), "failed": int(res.failed)}
	return nil
}
