package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// loopResult is what one closed-loop window produced.
type loopResult struct {
	kinds   []lat // per-request latencies by op kind; a failed request counts as MaxInt64
	failed  int64
	sent    int       // requests issued
	start   time.Time // first request sent
	lastAck time.Time // every client done
}

// all returns the latencies of every op kind together.
func (r *loopResult) all() lat {
	var out lat
	for _, k := range r.kinds {
		out = append(out, k...)
	}
	return out
}

// closedLoop drives the clients over the request schedule 0..n-1 until
// the window ends or the schedule runs out. Each client takes the next
// request only after its previous one returned. do sends request i as
// client c and returns the request's op kind (0..kinds-1), its
// latency, and its error (nil when acknowledged); do checks the
// request's output itself and reports a mismatch through rep.fail.
func closedLoop(rep *report, n, kinds int, window time.Duration, do func(c, i int) (kind int, d time.Duration, err error)) *loopResult {
	res := &loopResult{kinds: make([]lat, kinds)}
	var next atomic.Int64
	var failed atomic.Int64
	perClient := make([][]lat, clients)
	res.start = time.Now()
	deadline := res.start.Add(window)
	var wg sync.WaitGroup
	for c := range clients {
		perClient[c] = make([]lat, kinds)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				kind, d, err := do(c, i)
				if err != nil {
					failed.Add(1)
					d = math.MaxInt64
				}
				perClient[c][kind] = append(perClient[c][kind], d)
			}
		}(c)
	}
	wg.Wait()
	res.lastAck = time.Now()
	res.sent = int(min(next.Load(), int64(n)))
	res.failed = failed.Load()
	for _, pc := range perClient {
		for k := range res.kinds {
			res.kinds[k] = append(res.kinds[k], pc[k]...)
		}
	}
	if res.sent >= n {
		rep.lines = append(rep.lines, fmt.Sprintf("  NOTE input schedule exhausted after %v", res.lastAck.Sub(res.start).Round(time.Millisecond)))
	}
	return res
}
