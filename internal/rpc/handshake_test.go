package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/shard"
)

// rawDial opens a connection that skips the Client handshake, so tests
// can speak arbitrary first frames at the server.
func rawDial(t *testing.T, addr string) (net.Conn, *bufio.Reader, *bufio.Writer) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewReader(conn), bufio.NewWriter(conn)
}

func rawCall(t *testing.T, br *bufio.Reader, bw *bufio.Writer, op byte, payload []byte) (byte, []byte) {
	t.Helper()
	if err := writeFrame(bw, op, payload); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	status, resp, err := readFrame(br, MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	return status, resp
}

// TestHandshakeRequiredFirst: a client that opens with any opcode other
// than OpHello gets a descriptive error on its first exchange, and the
// server drops the connection.
func TestHandshakeRequiredFirst(t *testing.T) {
	_, addr := startServer(t)
	_, br, bw := rawDial(t, addr)
	status, resp := rawCall(t, br, bw, OpStats, nil)
	if status == 0 {
		t.Fatal("pre-handshake OpStats accepted")
	}
	if !strings.Contains(string(resp), "handshake required") {
		t.Fatalf("error not descriptive: %q", resp)
	}
	// The server hangs up after a failed handshake: the next read sees
	// EOF, not another response.
	if err := writeFrame(bw, OpStats, nil); err == nil {
		bw.Flush()
	}
	if _, _, err := readFrame(br, MaxFrame); !errors.Is(err, io.EOF) && err == nil {
		t.Fatal("connection survived a failed handshake")
	}
}

// TestHandshakeBadMagic: a hello carrying the wrong magic (some other
// protocol probing the port) is refused and the connection dropped.
func TestHandshakeBadMagic(t *testing.T) {
	_, addr := startServer(t)
	_, br, bw := rawDial(t, addr)
	status, resp := rawCall(t, br, bw, OpHello, []byte{'H', 'T', 'T', 'P', 1})
	if status == 0 {
		t.Fatal("bad magic accepted")
	}
	if !strings.Contains(string(resp), "magic") {
		t.Fatalf("error not descriptive: %q", resp)
	}
}

// TestHandshakeRejectsShortAndZero: truncated hello payloads and
// version 0 are refused.
func TestHandshakeRejectsShortAndZero(t *testing.T) {
	_, addr := startServer(t)
	for _, payload := range [][]byte{nil, protocolMagic[:3], helloPayload(0)} {
		_, br, bw := rawDial(t, addr)
		if status, _ := rawCall(t, br, bw, OpHello, payload); status == 0 {
			t.Fatalf("hello payload %v accepted", payload)
		}
	}
}

// TestHandshakeVersionReported: a well-formed hello succeeds and the
// reply announces the server's magic and version.
func TestHandshakeVersionReported(t *testing.T) {
	_, addr := startServer(t)
	_, br, bw := rawDial(t, addr)
	status, resp := rawCall(t, br, bw, OpHello, helloPayload(ProtocolVersion))
	if status != StatusOK {
		t.Fatalf("hello refused: %s", resp)
	}
	if len(resp) != 5 || string(resp[:4]) != string(protocolMagic[:]) || resp[4] != ProtocolVersion {
		t.Fatalf("hello reply = %q, want magic + version %d", resp, ProtocolVersion)
	}
}

// TestHandshakeVersionMismatchRefused: the handshake is exact-match. A
// hello one version above or below the server's is refused with both
// versions named, and the server drops the connection.
func TestHandshakeVersionMismatchRefused(t *testing.T) {
	_, addr := startServer(t)
	for _, v := range []byte{ProtocolVersion - 1, ProtocolVersion + 1} {
		conn, br, bw := rawDial(t, addr)
		status, resp := rawCall(t, br, bw, OpHello, helloPayload(v))
		if status != StatusError {
			t.Fatalf("hello with version %d: status %d, want refusal", v, status)
		}
		want := fmt.Sprintf("client speaks %d, server speaks %d", v, ProtocolVersion)
		if !strings.Contains(string(resp), want) {
			t.Fatalf("refusal %q does not name both versions (%q)", resp, want)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
			t.Fatalf("connection survived a version mismatch: %v", err)
		}
	}
}

// TestDialRefusesMismatchedServer: a server that announces another
// version in its hello reply fails Dial with both versions named.
func TestDialRefusesMismatchedServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			br := bufio.NewReader(conn)
			if _, _, err := readFrame(br, MaxFrame); err == nil {
				writeFrame(conn, StatusOK, helloPayload(ProtocolVersion+1))
			}
			conn.Close()
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err == nil {
		c.Close()
		t.Fatal("Dial accepted a server of another protocol version")
	}
	want := fmt.Sprintf("client speaks %d, server speaks %d", ProtocolVersion, ProtocolVersion+1)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("Dial error %q does not name both versions (%q)", err, want)
	}
}

// TestShardStatsOverRPC: against a sharded backend, StatsFull carries
// the merged aggregate plus one stats block per shard, and the
// aggregate's counters equal the sum of the per-shard counters.
func TestShardStatsOverRPC(t *testing.T) {
	r, err := shard.Open(shard.Config{ShardCount: 4, Config: engine.Config{
		Dir:          t.TempDir(),
		MemTableSize: 1000,
		SyncFlush:    true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(r)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		r.Close()
	})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for d := 0; d < 8; d++ {
		sensor := "d" + string(rune('0'+d)) + ".s0"
		if err := c.InsertBatch(sensor, []int64{3, 1, 2}, []float64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	agg, per, err := c.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 4 {
		t.Fatalf("per-shard blocks = %d, want 4", len(per))
	}
	var sum int64
	for _, st := range per {
		sum += st.SeqPoints + st.UnseqPoints
	}
	if agg.SeqPoints+agg.UnseqPoints != sum || sum != 24 {
		t.Fatalf("aggregate %d vs per-shard sum %d (want 24)", agg.SeqPoints+agg.UnseqPoints, sum)
	}
	// The convenience accessor returns the same breakdown.
	per2, err := c.ShardStats()
	if err != nil || len(per2) != 4 {
		t.Fatalf("ShardStats = %d blocks, %v", len(per2), err)
	}
}

// TestUnshardedStatsEmptyBreakdown: a bare-engine server encodes a
// zero-length shard extension; clients see an empty breakdown.
func TestUnshardedStatsEmptyBreakdown(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, per, err := c.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 0 {
		t.Fatalf("unsharded server reported %d shards", len(per))
	}
}

// fixedStatsEngine is a bare engine whose Stats snapshot is fixed, so
// every field's trip through OpStats can be checked exactly.
type fixedStatsEngine struct {
	*engine.Engine
	st engine.Stats
}

func (b fixedStatsEngine) Stats() engine.Stats { return b.st }

// fixedStatsRouter is the sharded counterpart: a router whose merged
// and per-shard snapshots are fixed.
type fixedStatsRouter struct {
	*shard.Router
	total engine.Stats
	per   []engine.Stats
}

func (b fixedStatsRouter) StatsAll() (engine.Stats, []engine.Stats) { return b.total, b.per }

// distinctStats sets every engine.Stats field to a non-zero value that
// differs from every other field's and, through seed, from other
// snapshots'. Integers sit above 2^53, where a float64 detour would
// round them; floats carry a fraction with no short decimal form.
func distinctStats(t *testing.T, seed int) engine.Stats {
	t.Helper()
	var st engine.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		k := int64(seed*1000 + i + 1)
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(1<<53 + k)
		case reflect.Float64:
			f.SetFloat(float64(k) + 1.0/3)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("engine.Stats.%s has kind %s: give it a distinct value here",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return st
}

// statsDiff names the fields where got and want differ.
func statsDiff(got, want engine.Stats) string {
	var b strings.Builder
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if g.Field(i).Interface() != w.Field(i).Interface() {
			fmt.Fprintf(&b, " %s=%v (want %v)", g.Type().Field(i).Name, g.Field(i), w.Field(i))
		}
	}
	return b.String()
}

// TestStatsRoundTrip sends fully populated stats snapshots through
// OpStats, from a 4-shard router and from a bare engine, and requires
// every field of the aggregate and of each shard back exactly. The
// aggregate's front-end fields must carry the server's queue and
// connection counters instead. The fields are enumerated by
// reflection, so a new Stats field is covered without editing this
// test.
func TestStatsRoundTrip(t *testing.T) {
	r, err := shard.Open(shard.Config{ShardCount: 4, Config: engine.Config{Dir: t.TempDir(), SyncFlush: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	e, err := engine.Open(engine.Config{Dir: t.TempDir(), SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })

	per := make([]engine.Stats, 4)
	for i := range per {
		per[i] = distinctStats(t, i+1)
	}
	router := fixedStatsRouter{Router: r, total: distinctStats(t, 0), per: per}
	bare := fixedStatsEngine{Engine: e, st: distinctStats(t, 9)}

	for _, tc := range []struct {
		name    string
		backend Backend
		total   engine.Stats
		per     []engine.Stats
	}{
		{"router", router, router.total, router.per},
		{"engine", bare, bare.st, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(tc.backend)
			srv.SetQueueBounds(7, 3)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			got, gotPer, err := c.StatsFull()
			if err != nil {
				t.Fatal(err)
			}
			want := tc.total
			qs := srv.queue.Stats()
			want.IngestQueueCap, want.IngestQueueDepth, want.IngestWorkers = qs.Capacity, qs.Depth, qs.Workers
			want.IngestEnqueued, want.IngestRejected = qs.Enqueued, qs.Rejected
			want.PipelinedConns = srv.pipelinedConns.Load()
			if want.IngestQueueCap != 7 || want.IngestWorkers != 3 || want.PipelinedConns != 1 {
				t.Fatalf("server front end: cap %d, workers %d, conns %d; want 7, 3, 1",
					want.IngestQueueCap, want.IngestWorkers, want.PipelinedConns)
			}
			if got != want {
				t.Fatalf("aggregate differs:%s", statsDiff(got, want))
			}
			if len(gotPer) != len(tc.per) {
				t.Fatalf("per-shard snapshots = %d, want %d", len(gotPer), len(tc.per))
			}
			for i := range tc.per {
				if gotPer[i] != tc.per[i] {
					t.Fatalf("shard %d differs:%s", i, statsDiff(gotPer[i], tc.per[i]))
				}
			}
		})
	}
}
