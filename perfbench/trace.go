package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/faultfs"
	"repro/internal/shard"
	"repro/internal/winagg"
)

// span is one timed call at a layer boundary. Spans of one request
// share req (the id of the request's client span); parent is the span
// that caused this one (0 for roots and for background work such as
// flush I/O, which no request owns).
type span struct {
	id, parent, req uint64
	name            string
	start, end      time.Duration // since the tracer started
}

func (s span) dur() time.Duration { return s.end - s.start }

// spanRef names a span before it ends, so children can point at it.
type spanRef struct{ id, req uint64 }

// callKey identifies one backend call from its arguments, so the
// backend decorator can find the client span that issued it: the
// sensor plus the first timestamp of an insert, or the range of a read.
type callKey struct {
	sensor string
	a, b   int64
}

// tracer keeps spans in memory for the traced run. A nil *tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	t0      time.Time
	next    atomic.Uint64
	mu      sync.Mutex
	spans   []span
	pending sync.Map // callKey -> spanRef
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root allocates the client span of a new request.
func (t *tracer) root() spanRef {
	if t == nil {
		return spanRef{}
	}
	id := t.next.Add(1)
	return spanRef{id: id, req: id}
}

// child allocates a span under parent.
func (t *tracer) child(parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{id: t.next.Add(1), req: parent.req}
}

// record stores a finished span.
func (t *tracer) record(name string, ref spanRef, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	sp := span{id: ref.id, parent: parent, req: ref.req, name: name, start: start.Sub(t.t0), end: end.Sub(t.t0)}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// expect announces that the request ref is about to make the backend
// call k; done withdraws it after the reply.
func (t *tracer) expect(k callKey, ref spanRef) {
	if t != nil {
		t.pending.Store(k, ref)
	}
}

func (t *tracer) done(k callKey) {
	if t != nil {
		t.pending.Delete(k)
	}
}

// backendSpan times one backend call and links it to the client span
// that announced the call.
func (t *tracer) backendSpan(name string, k callKey, start time.Time) {
	if t == nil {
		return
	}
	var parent spanRef
	if v, ok := t.pending.Load(k); ok {
		parent = v.(spanRef)
	}
	t.record(name, t.child(parent), parent.id, start, time.Now())
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as CSV (id,parent,req,name,start_ns,end_ns)
// under .bench_build/traces and returns the file name.
func (t *tracer) write(tag string) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, tag+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns")
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.req, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTimes returns, for every span that has children, its duration
// minus the part of its interval that its children cover.
func selfTimes(spans []span) map[uint64]time.Duration {
	type iv struct{ a, b time.Duration }
	kids := map[uint64][]iv{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], iv{s.start, s.end})
		}
	}
	out := map[uint64]time.Duration{}
	for _, s := range spans {
		ch, ok := kids[s.id]
		if !ok {
			continue
		}
		sort.Slice(ch, func(i, j int) bool { return ch[i].a < ch[j].a })
		var covered, hi time.Duration
		hi = s.start
		for _, c := range ch {
			a, b := max(c.a, hi), min(c.b, s.end)
			if b > a {
				covered += b - a
				hi = b
			}
		}
		out[s.id] = s.dur() - covered
	}
	return out
}

// spansNamed returns the durations of the spans with the given name.
func spansNamed(spans []span, name string) lat {
	var out lat
	for _, s := range spans {
		if s.name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfOf returns the self times of the spans with the given name that
// have children.
func selfOf(spans []span, self map[uint64]time.Duration, name string) lat {
	var out lat
	for _, s := range spans {
		if d, ok := self[s.id]; ok && s.name == name {
			out = append(out, d)
		}
	}
	return out
}

// backendInner is what the decorator wraps: the rpc/httpgw backend
// surface plus the pushdown aggregation path query.WindowQuery prefers.
type backendInner interface {
	InsertBatch(sensor string, times []int64, values []float64) error
	Query(sensor string, minT, maxT int64) ([]engine.TV, error)
	LatestTime(sensor string) (int64, bool)
	Stats() engine.Stats
	Flush()
	WaitFlushes()
	AggregateWindows(sensor string, startT, endT, window int64, op winagg.Op) ([]winagg.Window, error)
}

// tracedBackend is the timing decorator handed to rpc.NewServer and
// httpgw.New in the traced run. It forwards AggregateWindows so the
// servers keep the pushdown path.
type tracedBackend struct {
	in backendInner
	tr *tracer
}

func (b tracedBackend) InsertBatch(sensor string, times []int64, values []float64) error {
	start := time.Now()
	err := b.in.InsertBatch(sensor, times, values)
	if len(times) > 0 {
		b.tr.backendSpan("backend.insert", callKey{sensor, times[0], 0}, start)
	}
	return err
}

func (b tracedBackend) Query(sensor string, minT, maxT int64) ([]engine.TV, error) {
	start := time.Now()
	out, err := b.in.Query(sensor, minT, maxT)
	b.tr.backendSpan("backend.query", callKey{sensor, minT, maxT}, start)
	return out, err
}

func (b tracedBackend) AggregateWindows(sensor string, startT, endT, window int64, op winagg.Op) ([]winagg.Window, error) {
	start := time.Now()
	out, err := b.in.AggregateWindows(sensor, startT, endT, window, op)
	b.tr.backendSpan("backend.aggregate", callKey{sensor, startT, endT}, start)
	return out, err
}

func (b tracedBackend) LatestTime(sensor string) (int64, bool) { return b.in.LatestTime(sensor) }
func (b tracedBackend) Stats() engine.Stats                    { return b.in.Stats() }
func (b tracedBackend) Flush()                                 { b.in.Flush() }
func (b tracedBackend) WaitFlushes()                           { b.in.WaitFlushes() }

// tracedRouter adds the router's StatsAll, so a server over the
// decorated router still serves the per-shard stats breakdown.
type tracedRouter struct {
	tracedBackend
	r *shard.Router
}

func (b tracedRouter) StatsAll() (engine.Stats, []engine.Stats) { return b.r.StatsAll() }

// File classes the counting filesystem attributes I/O to, by path.
const (
	ioWAL = iota
	ioChunk
	ioOther
	ioClasses
)

var ioClassNames = [ioClasses]string{"wal", "chunk", "other"}

func ioClass(path string) int {
	base := filepath.Base(path)
	switch {
	case strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".log"):
		return ioWAL
	case strings.HasSuffix(base, ".gtsf") || strings.HasSuffix(base, ".gtsf.tmp"):
		return ioChunk
	}
	return ioOther
}

// countingFS is the faultfs.FS passed in through Config.FS. It counts
// bytes written and fsyncs per file class in every run (the
// written-bytes metrics need them), and in the traced run also records
// a span per write and per fsync. A WAL file's fsync is modelled
// (walSyncModel).
type countingFS struct {
	under faultfs.FS
	tr    *tracer
	bytes [ioClasses]atomic.Int64
	syncs [ioClasses]atomic.Int64
}

// walSyncModel is how long a WAL file's Sync blocks the calling thread
// in the kernel, in place of flushing the file to the device.
// Everything else is real: the program still syncs once per commit and
// each insert still waits for its own, the WAL and chunk files are
// written to the filesystem, and chunk-file and directory fsyncs reach
// the device. A shared virtual disk's fsync latency swings by 2-4x
// within seconds and between minutes, which made every lp-ingest time
// metric spread past its bound; the model keeps the cost of each sync
// on the write path at the latency such a disk shows when it is quiet.
const walSyncModel = 100 * time.Microsecond

func newCountingFS(tr *tracer) *countingFS { return &countingFS{under: faultfs.OS, tr: tr} }

func (c *countingFS) written() int64 {
	return c.bytes[ioWAL].Load() + c.bytes[ioChunk].Load() + c.bytes[ioOther].Load()
}

func (c *countingFS) Create(path string) (faultfs.File, error) {
	f, err := c.under.Create(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, class: ioClass(path)}, nil
}

func (c *countingFS) MkdirAll(path string) error           { return c.under.MkdirAll(path) }
func (c *countingFS) Rename(oldpath, newpath string) error { return c.under.Rename(oldpath, newpath) }
func (c *countingFS) Remove(path string) error             { return c.under.Remove(path) }
func (c *countingFS) SyncDir(dir string) error             { return c.under.SyncDir(dir) }

type countingFile struct {
	faultfs.File
	fs    *countingFS
	class int
}

func (f *countingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.bytes[f.class].Add(int64(n))
	f.fs.tr.record("fs.write."+ioClassNames[f.class], f.fs.tr.root(), 0, start, time.Now())
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	var err error
	if f.class == ioWAL {
		// The runtime's preemption signals interrupt the sleep (an
		// fsync they cannot); sleep out the remainder.
		ts := syscall.NsecToTimespec(walSyncModel.Nanoseconds())
		err = syscall.Nanosleep(&ts, &ts)
		for err == syscall.EINTR {
			err = syscall.Nanosleep(&ts, &ts)
		}
	} else {
		err = f.File.Sync()
	}
	f.fs.syncs[f.class].Add(1)
	f.fs.tr.record("fs.sync."+ioClassNames[f.class], f.fs.tr.root(), 0, start, time.Now())
	return err
}
