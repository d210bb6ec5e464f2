package rpc

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/labels"
	"repro/internal/shard"
)

// TestIndexStatsOverRPC checks the label-index counters round-trip: a
// sharded backend with registered series and a selector query behind
// it reports series/postings/fan-out counters through StatsFull, with
// the per-shard snapshots zero (the index is store-level).
func TestIndexStatsOverRPC(t *testing.T) {
	r, err := shard.Open(shard.Config{
		Config:     engine.Config{Dir: t.TempDir(), MemTableSize: 128},
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

	for _, host := range []string{"a", "b", "c"} {
		ls := labels.MustNew(
			labels.Label{Name: "host", Value: host},
			labels.Label{Name: "metric", Value: "cpu"},
		)
		if err := r.InsertSeries(ls, []int64{1}, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.QuerySeries([]*labels.Matcher{
		labels.MustMatcher(labels.MatchRe, "host", "a|b"),
	}, 0, 10); err != nil {
		t.Fatal(err)
	}

	agg, per, err := c.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	if agg.SeriesCount != 3 || agg.LabelPairs != 4 || agg.PostingsEntries != 6 {
		t.Fatalf("index shape over rpc: series=%d pairs=%d entries=%d",
			agg.SeriesCount, agg.LabelPairs, agg.PostingsEntries)
	}
	if agg.MatcherResolutions == 0 || agg.SelectorQueries != 1 ||
		agg.FanoutSeries != 2 || agg.MaxFanoutWidth != 2 {
		t.Fatalf("fan-out counters over rpc: %+v", agg)
	}
	if len(per) != 2 {
		t.Fatalf("per-shard breakdown has %d entries, want 2", len(per))
	}
	for i, s := range per {
		if s.SeriesCount != 0 || s.SelectorQueries != 0 {
			t.Fatalf("shard %d carries store-level index counters: %+v", i, s)
		}
	}
}
