package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/query"
)

func startServer(t *testing.T) (*engine.Engine, string) {
	t.Helper()
	e, err := engine.Open(engine.Config{
		Dir:          t.TempDir(),
		MemTableSize: 1000,
		SyncFlush:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return e, addr
}

func TestClientServerRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.InsertBatch("s", []int64{5, 1, 3}, []float64{50, 10, 30}); err != nil {
		t.Fatal(err)
	}
	out, err := c.Query("s", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0].T != 1 || out[1].T != 3 || out[2].T != 5 || out[2].V != 50 {
		t.Fatalf("query = %+v", out)
	}

	latest, ok, err := c.Latest("s")
	if err != nil || !ok || latest != 5 {
		t.Fatalf("latest = %d,%v,%v", latest, ok, err)
	}
	_, ok, err = c.Latest("ghost")
	if err != nil || ok {
		t.Fatalf("ghost latest should be absent: %v %v", ok, err)
	}

	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.FlushCount != 1 || st.SeqPoints != 3 {
		t.Fatalf("stats = %+v", st)
	}

	// Data survives the flush.
	out, err = c.Query("s", 0, 10)
	if err != nil || len(out) != 3 {
		t.Fatalf("post-flush query = %+v, %v", out, err)
	}
}

func TestRemoteErrorSurfaced(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Engine rejects shape mismatches server-side; force one with a
	// hand-rolled payload (client validates, so craft the frame).
	payload := appendString(nil, "s")
	payload = append(payload, 0x01) // n = 1, but no record bytes follow
	if _, err := c.call(OpInsert, payload); err == nil {
		t.Fatal("malformed payload accepted")
	} else if !errors.Is(err, ErrRemote) {
		t.Fatalf("expected ErrRemote, got %v", err)
	}
}

func TestUnknownOpcode(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.call(99, nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("unknown opcode: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			sensor := fmt.Sprintf("s%d", w)
			for i := 0; i < 50; i++ {
				if err := c.InsertBatch(sensor, []int64{int64(i)}, []float64{float64(i)}); err != nil {
					errCh <- err
					return
				}
			}
			out, err := c.Query(sensor, 0, 100)
			if err != nil {
				errCh <- err
				return
			}
			if len(out) != 50 {
				errCh <- fmt.Errorf("client %d saw %d points", w, len(out))
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestBenchOverRPC(t *testing.T) {
	// The full client-server benchmark loop: the client satisfies
	// bench.Target.
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var target bench.Target = c
	res, err := bench.Run(target, bench.Config{
		WritePercent: 0.8,
		BatchSize:    100,
		Operations:   50,
		Sensors:      2,
		Dataset:      "lognormal",
		Mu:           1,
		Sigma:        1,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteOps == 0 || res.PointsWritten == 0 {
		t.Fatalf("rpc bench did nothing: %+v", res)
	}
}

func TestAggregateOverRPC(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Out-of-order inserts; server sorts, aggregates per window of 10.
	if err := c.InsertBatch("s", []int64{15, 3, 1, 12, 7}, []float64{15, 3, 1, 12, 7}); err != nil {
		t.Fatal(err)
	}
	wins, err := c.Aggregate("s", 0, 20, 10, query.Avg)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 2 {
		t.Fatalf("windows = %+v", wins)
	}
	// [0,10): 1,3,7 → avg 11/3; [10,20): 12,15 → 13.5.
	if wins[0].Count != 3 || wins[1].Count != 2 || wins[1].Value != 13.5 {
		t.Fatalf("windows = %+v", wins)
	}
	// Invalid window surfaces as a remote error.
	if _, err := c.Aggregate("s", 0, 20, 0, query.Avg); !errors.Is(err, ErrRemote) {
		t.Fatalf("invalid window: %v", err)
	}
}

func TestSettleOverRPC(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
}

func TestFrameLimits(t *testing.T) {
	// Frames above MaxFrame are rejected on write.
	if err := writeFrame(discard{}, 0, make([]byte, MaxFrame)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestServerCloseIdempotent(t *testing.T) {
	e, err := engine.Open(engine.Config{Dir: t.TempDir(), SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := NewServer(e)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsSortKernelFieldsOverRPC checks the six sort-kernel stats
// fields survive the wire: a server with a low flat threshold reports
// kernel activity; one with the kernel disabled reports -1.
func TestStatsSortKernelFieldsOverRPC(t *testing.T) {
	open := func(threshold, par int) (*engine.Engine, string) {
		t.Helper()
		e, err := engine.Open(engine.Config{
			Dir:               t.TempDir(),
			MemTableSize:      500,
			SyncFlush:         true,
			FlatSortThreshold: threshold,
			SortParallelism:   par,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(e)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.Close()
			e.Close()
		})
		return e, addr
	}

	_, addr := open(100, 3)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	times := make([]int64, 600)
	vals := make([]float64, 600)
	for i := range times {
		times[i] = int64(600 - i)
		vals[i] = float64(i)
	}
	if err := c.InsertBatch("s", times, vals); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.FlatSorts == 0 {
		t.Fatalf("no flat sorts over RPC: %+v", st)
	}
	if st.SortParallelism != 3 || st.FlatSortThreshold != 100 {
		t.Fatalf("kernel config lost on the wire: parallelism %d, threshold %d",
			st.SortParallelism, st.FlatSortThreshold)
	}

	_, addr2 := open(-1, 0)
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st2, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.FlatSortThreshold != -1 || st2.FlatSorts != 0 {
		t.Fatalf("disabled kernel misreported over RPC: %+v", st2)
	}
}

// TestFrameReadersGrowLargeBodies: bodies on both sides of smallFrame,
// delivered in short reads, come back intact, and a body cut short is
// an error rather than a short payload.
func TestFrameReadersGrowLargeBodies(t *testing.T) {
	for _, n := range []int{0, smallFrame - 5, smallFrame - 4, 3*smallFrame + 7, 1 << 20} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		var buf bytes.Buffer
		if err := writeTaggedFrame(&buf, OpInsert, 42, payload); err != nil {
			t.Fatal(err)
		}
		wire := buf.Bytes()
		op, tag, got, err := readTaggedFrame(iotest.HalfReader(bytes.NewReader(wire)))
		if err != nil || op != OpInsert || tag != 42 || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte payload: op %d tag %d, %d bytes back, err %v", n, op, tag, len(got), err)
		}
		if _, _, _, err := readTaggedFrame(bytes.NewReader(wire[:len(wire)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d-byte payload cut by one byte: err %v, want unexpected EOF", n, err)
		}
	}
}

// TestSilentFramesDoNotAllocate: peers that send only a length prefix
// claiming MaxFrame and then go silent must not make the server
// allocate what they claim. Before the handshake such a first frame is
// refused outright; after it, the body buffer grows only as bytes
// arrive.
func TestSilentFramesDoNotAllocate(t *testing.T) {
	_, addr := startServer(t)
	const conns = 4
	var claim [4]byte
	binary.LittleEndian.PutUint32(claim[:], MaxFrame)
	hello := helloPayload(ProtocolVersion)

	var handshaken []net.Conn
	for i := 0; i < conns; i++ {
		conn, br, bw := rawDial(t, addr)
		if status, resp := rawCall(t, br, bw, OpHello, hello); status != StatusOK {
			t.Fatalf("hello refused: %s", resp)
		}
		handshaken = append(handshaken, conn)
	}
	before := heapInUse()
	for _, conn := range handshaken {
		if _, err := conn.Write(claim[:]); err != nil {
			t.Fatal(err)
		}
	}
	var fresh []net.Conn
	for i := 0; i < conns; i++ {
		conn, _, _ := rawDial(t, addr)
		if _, err := conn.Write(claim[:]); err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, conn)
	}

	// Every server reader acts on its header within milliseconds; keep
	// sampling for a while so an allocation made on the header shows.
	const limit = 4 << 20
	var grown int64
	for i := 0; i < 20; i++ {
		grown = max(grown, heapInUse()-before)
		if grown > limit {
			t.Fatalf("%d silent connections claiming %d-byte frames grew the heap by %.1f MiB",
				2*conns, MaxFrame, float64(grown)/(1<<20))
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("%d silent connections grew the heap by at most %.2f MiB", 2*conns, float64(grown)/(1<<20))

	for _, conn := range fresh {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var hdr [4]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatalf("no refusal for an oversized first frame: %v", err)
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n == 0 || n > 4096 {
			t.Fatalf("refusal frame length %d", n)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(conn, body); err != nil {
			t.Fatal(err)
		}
		if body[0] != StatusError || !strings.Contains(string(body[1:]), "handshake required") {
			t.Fatalf("oversized first frame answered with status %d: %q", body[0], body[1:])
		}
	}
}

// heapInUse reports the live heap after a collection, in bytes.
func heapInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}
