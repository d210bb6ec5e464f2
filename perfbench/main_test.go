package main

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"
)

// BENCHMARK.json at the repository root must be exactly what
// --describe prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, describeJSON()) {
		t.Fatalf("BENCHMARK.json is stale: regenerate with bash perfbench/run.sh --describe > BENCHMARK.json")
	}
}

func TestSelfTimesSubtractsChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, name: "client", start: 0, end: 10 * ms},
		{id: 2, parent: 1, name: "backend", start: 2 * ms, end: 5 * ms},
		{id: 3, parent: 1, name: "backend", start: 4 * ms, end: 7 * ms},  // overlaps id 2
		{id: 4, parent: 1, name: "backend", start: 9 * ms, end: 12 * ms}, // runs past the parent
		{id: 5, name: "lone", start: 0, end: ms},
	}
	self := selfTimes(spans)
	if got, want := self[1], 10*ms-5*ms-ms; got != want {
		t.Fatalf("self time of the client span = %v, want %v", got, want)
	}
	if _, ok := self[5]; ok {
		t.Fatalf("a span without children has no self-time entry")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var l lat
	for i := 1; i <= 1000; i++ {
		l = append(l, time.Duration(i)*time.Millisecond)
	}
	if p := l.percentile(0.5); p != 500 {
		t.Fatalf("p50 = %v, want 500", p)
	}
	if p := l.percentile(0.99); p != 990 {
		t.Fatalf("p99 = %v, want 990", p)
	}
	if !l.p99Kept() || l[:999].p99Kept() {
		t.Fatalf("p99 needs ten samples beyond it: 1000 samples")
	}
	if ms, q := l[:500].tail(); ms != 490 || q != 0.98 {
		t.Fatalf("tail of 500 samples = %v ms at q=%v, want the 490th sample at q=0.98", ms, q)
	}
}

func TestMemtableChunksCutsExactly(t *testing.T) {
	bs := []batch{{times: make([]int64, 7), values: make([]float64, 7)}, {times: make([]int64, 5), values: make([]float64, 5)}}
	var sizes []int
	for _, c := range memtableChunks(bs, 4) {
		sizes = append(sizes, len(c.times))
	}
	if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 4 {
		t.Fatalf("chunk sizes %v, want [4 4 4]", sizes)
	}
}

func TestArrivalOrderIsAPermutation(t *testing.T) {
	order := arrivalOrder(1000, func() float64 { return 3 })
	for i, g := range order {
		if int(g) != i {
			t.Fatalf("a constant delay keeps generation order; index %d holds %d", i, g)
		}
	}
}

func TestClosedLoopCountsFailuresAsInfinitelySlow(t *testing.T) {
	rep := newReport("test", 1, false)
	res := closedLoop(rep, 10, 2, time.Minute, func(c, i int) (int, time.Duration, error) {
		if i == 3 {
			return i % 2, time.Millisecond, os.ErrDeadlineExceeded
		}
		return i % 2, time.Millisecond, nil
	})
	if res.sent != 10 || res.failed != 1 || len(res.kinds[0]) != 5 || len(res.kinds[1]) != 5 {
		t.Fatalf("sent %d, failed %d, kinds %d/%d; want 10, 1, 5/5", res.sent, res.failed, len(res.kinds[0]), len(res.kinds[1]))
	}
	if p := res.kinds[1].percentile(0.99); p != float64(math.MaxInt64)/1e6 {
		t.Fatalf("the failed request's latency reads %v ms, want MaxInt64", p)
	}
	if len(rep.lines) != 1 {
		t.Fatalf("an exhausted schedule must print one NOTE line, got %q", rep.lines)
	}
}
