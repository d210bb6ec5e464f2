package rpc

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/query"
)

// TestDispatchSurvivesRandomPayloads throws random bytes at every
// opcode's decoder: the server must reply with errors, never panic.
func TestDispatchSurvivesRandomPayloads(t *testing.T) {
	e, err := engine.Open(engine.Config{Dir: t.TempDir(), SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := NewServer(e)

	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		op := byte(r.Intn(10)) // includes unknown opcodes
		payload := make([]byte, r.Intn(64))
		r.Read(payload)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("dispatch panicked on op %d payload %x: %v", op, payload, p)
				}
			}()
			_, _ = srv.dispatch(op, payload)
		}()
	}
}

// TestDispatchSurvivesTruncatedValidPayloads replays prefixes of a
// valid insert payload — every truncation point must decode cleanly
// into an error.
func TestDispatchSurvivesTruncatedValidPayloads(t *testing.T) {
	e, err := engine.Open(engine.Config{Dir: t.TempDir(), SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := NewServer(e)

	payload := appendString(nil, "sensor")
	payload = append(payload, 2) // n=2
	payload = appendFloat64(appendString(payload[:len(payload)], ""), 0)

	for cut := 0; cut < len(payload); cut++ {
		if _, err := srv.dispatch(OpInsert, payload[:cut]); err == nil && cut < len(payload)-1 {
			// Some prefixes can be coincidentally valid (e.g. n=0);
			// the requirement is only "no panic", checked implicitly.
			continue
		}
	}
}

// nopBackend answers every op without storing anything, so
// FuzzDispatch sees only what dispatch itself allocates.
type nopBackend struct{}

func (nopBackend) InsertBatch(string, []int64, []float64) error    { return nil }
func (nopBackend) Query(string, int64, int64) ([]engine.TV, error) { return nil, nil }
func (nopBackend) LatestTime(string) (int64, bool)                 { return 0, false }
func (nopBackend) Stats() engine.Stats                             { return engine.Stats{} }
func (nopBackend) Flush()                                          {}
func (nopBackend) WaitFlushes()                                    {}

// FuzzDispatch feeds arbitrary (opcode, payload) pairs to the server's
// op decoder. It must answer with a reply or an error, never panic,
// and what it allocates must stay proportional to the payload: a count
// claiming more records than the frame holds has to be refused
// ("exceeds frame") before the slices it would size are made.
func FuzzDispatch(f *testing.F) {
	insert, err := encodeInsert("d0.s0", []int64{3, 1, 2}, []float64{1, 2, 3})
	if err != nil {
		f.Fatal(err)
	}
	rng := binary.AppendVarint(binary.AppendVarint(appendString(nil, "d0.s0"), 0), 100)
	agg := appendString(nil, "d0.s0")
	for _, v := range []int64{0, 100, 10, int64(query.Avg)} {
		agg = binary.AppendVarint(agg, v)
	}
	hello := helloPayload(ProtocolVersion)
	hugeCount := binary.AppendUvarint(appendString(nil, "s"), 1<<40)
	for _, seed := range []struct {
		op      byte
		payload []byte
	}{
		{OpInsert, insert},
		{OpInsert, hugeCount},
		{OpQuery, rng},
		{OpLatest, appendString(nil, "d0.s0")},
		{OpStats, nil},
		{OpFlush, nil},
		{OpWait, nil},
		{OpAgg, agg},
		{OpHello, hello},
	} {
		f.Add(seed.op, seed.payload)
	}
	srv := NewServer(nopBackend{})
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = srv.dispatch(op, payload)
		runtime.ReadMemStats(&after)
		// An insert decodes at most len/9+1 records into 16 bytes each
		// plus the sensor name; 64 KiB covers the fixed-size replies.
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<10+4*uint64(len(payload)) {
			t.Fatalf("op %d with a %d-byte payload allocated %d bytes", op, len(payload), grown)
		}
	})
}
