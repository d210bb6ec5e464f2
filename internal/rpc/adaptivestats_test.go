package rpc

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/shard"
)

// TestAdaptiveStatsOverRPC checks the adaptive-sort counters
// round-trip: a sharded backend running with AdaptiveSort on reports
// the planner counters through StatsFull, aggregate and per shard.
func TestAdaptiveStatsOverRPC(t *testing.T) {
	r, err := shard.Open(shard.Config{
		Config: engine.Config{
			Dir:          t.TempDir(),
			MemTableSize: 512,
			SyncFlush:    true,
			AdaptiveSort: true,
		},
		ShardCount: 2,
	})
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

	// Enough out-of-order data on each of several sensors to trip a
	// few flushes per shard.
	for round := 0; round < 8; round++ {
		for _, sensor := range []string{"s0", "s1", "s2", "s3"} {
			ts := make([]int64, 256)
			vs := make([]float64, 256)
			for i := range ts {
				tt := int64(round*256+i) * 10
				if i%2 == 1 {
					tt -= 15
				}
				ts[i] = tt
				vs[i] = float64(i)
			}
			if err := c.InsertBatch(sensor, ts, vs); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	agg, per, err := c.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	if !agg.AdaptiveSortEnabled {
		t.Fatal("aggregate AdaptiveSortEnabled false over rpc")
	}
	if agg.SketchSeededFlushes == 0 {
		t.Fatalf("no sketch-seeded flushes reported: %+v", agg)
	}
	if agg.AdaptiveFlatRoutes+agg.AdaptiveIfaceRoutes == 0 {
		t.Fatal("no per-sensor routing decisions reported")
	}
	if agg.AdaptiveMinL <= 0 || agg.AdaptiveMaxL < agg.AdaptiveMinL {
		t.Fatalf("chosen-L range [%d, %d] malformed", agg.AdaptiveMinL, agg.AdaptiveMaxL)
	}
	if len(per) != 2 {
		t.Fatalf("per-shard breakdown has %d entries, want 2", len(per))
	}
	var sum int64
	for _, s := range per {
		if !s.AdaptiveSortEnabled {
			t.Fatalf("shard lost the enabled flag: %+v", s)
		}
		sum += s.SketchSeededFlushes
	}
	if sum != agg.SketchSeededFlushes {
		t.Fatalf("per-shard seeded flushes sum %d != aggregate %d", sum, agg.SketchSeededFlushes)
	}
}
