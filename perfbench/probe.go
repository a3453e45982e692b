package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set in MiB (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024
}

// heapCounts is cumulative heap allocation: bytes and objects.
type heapCounts struct{ bytes, objects uint64 }

var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

// readHeap reads heapCounts through runtime/metrics, which counts a P's small
// objects only when that P's allocation cache refills a span or a GC
// flushes it: a short interval's delta comes in whole-span lumps,
// sometimes credited to another goroutine's interval. It serves means
// over many calls (tracer.call's per-layer figures), where the lumps
// average out. It is called from the client goroutine only (heapSamples
// is a shared buffer).
func readHeap() heapCounts {
	metrics.Read(heapSamples)
	return heapCounts{heapSamples[0].Value.Uint64(), heapSamples[1].Value.Uint64()}
}

// memStats is exactHeap's buffer; exactHeap runs on the client goroutine
// only. A package-level buffer keeps the read itself off the heap.
var memStats runtime.MemStats

// exactHeap reads cumulative heap allocation exactly: ReadMemStats stops
// the world and flushes every P's allocation cache before it counts, so
// every object allocated so far is in the figure. It brackets each timed
// op, outside the op's wall-clock and CPU interval.
func exactHeap() heapCounts {
	runtime.ReadMemStats(&memStats)
	return heapCounts{memStats.TotalAlloc, memStats.Mallocs}
}

func (a heapCounts) sub(b heapCounts) heapCounts {
	return heapCounts{a.bytes - b.bytes, a.objects - b.objects}
}

// gcPause is the cumulative stop-the-world GC pause time.
func gcPause() time.Duration {
	var s debug.GCStats
	debug.ReadGCStats(&s)
	return s.PauseTotal
}

// resources is the leak-check snapshot: live goroutines and open fds.
type resources struct{ goroutines, fds int }

func snapshot() (resources, error) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return resources{}, fmt.Errorf("count fds: %w", err)
	}
	// ReadDir's own directory fd is open while it lists, and listed.
	return resources{goroutines: runtime.NumGoroutine(), fds: len(ents) - 1}, nil
}

// leaks compares the current resources with a baseline. Goroutines and
// sockets of a finished op may take a moment to exit after their owner
// returns, so it waits up to grace for the counts to settle.
func leaks(base resources, grace time.Duration) (resources, error) {
	deadline := time.Now().Add(grace)
	for {
		cur, err := snapshot()
		if err != nil {
			return resources{}, err
		}
		d := resources{cur.goroutines - base.goroutines, cur.fds - base.fds}
		if (d.goroutines <= 0 && d.fds <= 0) || time.Now().After(deadline) {
			return resources{max(d.goroutines, 0), max(d.fds, 0)}, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}
