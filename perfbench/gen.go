package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"syscall"
	"unsafe"
)

// tick is the generation interval in timestamp units: point i of a
// series is generated at i*tick, as in the repository's datasets.
const tick = 1000

// signal is the value generated at timestamp t for a series with the
// given offset: two sines plus a slow trend, so values stay tied to
// timestamps through any reordering and the oracle can recompute them.
func signal(t int64, offset float64) float64 {
	x := float64(t) / tick
	return 40*math.Sin(x/12.0) + 8*math.Sin(x/2.5) + x/500.0 + offset
}

// arrivalOrder returns the generation indices 0..n-1 in arrival order
// when point i arrives at i + delay(): the delay-only disorder model of
// the paper (Definition 5). Ties keep generation order.
func arrivalOrder(n int, delay func() float64) []int32 {
	type pt struct {
		arrival float64
		gen     int32
	}
	pts := make([]pt, n)
	for i := range pts {
		pts[i] = pt{float64(i) + delay(), int32(i)}
	}
	slices.SortStableFunc(pts, func(a, b pt) int {
		switch {
		case a.arrival < b.arrival:
			return -1
		case a.arrival > b.arrival:
			return 1
		}
		return 0
	})
	out := make([]int32, n)
	for i, p := range pts {
		out[i] = p.gen
	}
	return out
}

// logNormal returns a LogNormal(mu, sigma) delay sampler.
func logNormal(r *rand.Rand, mu, sigma float64) func() float64 {
	return func() float64 { return math.Exp(mu + sigma*r.NormFloat64()) }
}

// absNormal returns an AbsNormal(mu, sigma) delay sampler.
func absNormal(r *rand.Rand, mu, sigma float64) func() float64 {
	return func() float64 { return math.Abs(mu + sigma*r.NormFloat64()) }
}

// batch is one write request's points for one series.
type batch struct {
	times  []int64
	values []float64
}

// cutBatches materialises a series' points in arrival order and cuts
// them into batches of size points.
func cutBatches(order []int32, size int, offset float64) []batch {
	times := offHeap[int64](len(order))
	values := offHeap[float64](len(order))
	for i, g := range order {
		times[i] = int64(g) * tick
		values[i] = signal(times[i], offset)
	}
	var out []batch
	for lo := 0; lo < len(order); lo += size {
		hi := min(lo+size, len(order))
		out = append(out, batch{times[lo:hi:hi], values[lo:hi:hi]})
	}
	return out
}

// valuesFor returns the generated values at the given timestamps.
func valuesFor(times []int64, offset float64) []float64 {
	vs := make([]float64, len(times))
	for i, t := range times {
		vs[i] = signal(t, offset)
	}
	return vs
}

// inputMem hands out the arrays of the generated inputs from anonymous
// memory mapped outside the Go heap. The inputs hold no pointers and
// live for the whole run. Off the heap they neither raise the
// collector's heap goal, which scales with live heap data, nor hide
// the program's own memory in peak_rss_mb.
var inputMem struct {
	mu   sync.Mutex
	free []byte
}

const inputMemChunk = 64 << 20

// offHeap returns a zeroed slice of n elements from inputMem.
func offHeap[T int64 | float64 | byte | bool](n int) []T {
	if n == 0 {
		return nil
	}
	var zero T
	size := (n*int(unsafe.Sizeof(zero)) + 7) &^ 7
	inputMem.mu.Lock()
	defer inputMem.mu.Unlock()
	if len(inputMem.free) < size {
		b, err := syscall.Mmap(-1, 0, max(size, inputMemChunk), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(fmt.Sprintf("perfbench: mapping input memory: %v", err))
		}
		inputMem.free = b
	}
	b := inputMem.free[:size:size]
	inputMem.free = inputMem.free[size:]
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}
