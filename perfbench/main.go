// Command perfbench is the repository's end-to-end benchmark. It
// generates seeded inputs, drives one of four workloads through the
// layers' public entry points (in-process live broadcast, reliable
// broadcast over loopback UDP, batches of concurrent sessions through the
// session scheduler and the parallel simulator), checks every output, and
// prints its metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run measures untraced and then traced, records a span around every
// call into a layer, writes the spans as a Chrome trace and prints the
// per-layer metrics. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// endToEnd lists the metrics of an untraced run, with units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"goodput_MBps", "MB/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_KB_per_op", "KB"},
	{"allocs_per_op", "count"},
	{"max_rss_MB", "MB"},
}

// perLayer lists the metrics of a traced run. Every workload prints all
// of them; a layer the workload never calls reads 0.
var perLayer = []metricDef{
	{"failed_frac", "frac"},
	{"go.goroutines_leaked", "count"},
	{"os.fds_leaked", "count"},
	{"go.gc_pause_ms_per_op", "ms"},
	{"go.alloc_KB_per_op_mean", "KB"},
	{"go.allocs_per_op_mean", "count"},
	{"bench.trace_overhead_frac", "frac"},
	{"core.plan_us", "us"},
	{"core.alloc_KB_per_call", "KB"},
	{"message.packetize_us", "us"},
	{"message.alloc_KB_per_call", "KB"},
	{"live.setup_us", "us"},
	{"live.first_inject_us", "us"},
	{"live.deliver_us", "us"},
	{"live.sends_per_op", "count"},
	{"live.run_self_us", "us"},
	{"live.reliable_latency_us", "us"},
	{"live.teardown_us", "us"},
	{"live.busy_frac", "frac"},
	{"live.retransmits_per_op", "count"},
	{"live.retransmit_frac", "frac"},
	{"live.duplicates_per_op", "count"},
	{"live.alloc_KB_per_call", "KB"},
	{"link.fabric_up_us", "us"},
	{"link.fabric_down_us", "us"},
	{"link.attach_us", "us"},
	{"link.dial_us", "us"},
	{"link.send_calls_per_op", "count"},
	{"link.send_us", "us"},
	{"link.send_busy_ms_per_op", "ms"},
	{"link.chaos_drops_per_op", "count"},
	{"link.udp_resyncs", "count"},
	{"link.udp_bad_datagrams", "count"},
	{"link.alloc_KB_per_call", "KB"},
	{"sched.plan_us", "us"},
	{"sched.submit_us", "us"},
	{"sched.wait_ms", "ms"},
	{"sched.queue_wait_p50_us", "us"},
	{"sched.queue_wait_p99_us", "us"},
	{"sched.inflight_p50_us", "us"},
	{"sched.inflight_p99_us", "us"},
	{"sched.max_inflight", "count"},
	{"sched.rejected", "count"},
	{"sched.dropped_frames", "count"},
	{"sched.alloc_KB_per_call", "KB"},
	{"psim.run_ms", "ms"},
	{"psim.events_per_op", "count"},
	{"psim.windows_per_op", "count"},
	{"psim.events_per_window", "count"},
	{"psim.mailed_frac", "frac"},
	{"psim.alloc_KB_per_call", "KB"},
	{"sim.run_ms", "ms"},
	{"sim.alloc_KB_per_call", "KB"},
	{"sim_events_per_s", "1/s"},
	{"sim_mcast_us_mean", "us"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func main() {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&opt.seed, "seed", 1, "input seed")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measurement seconds per phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	opt.trace = traceFlag == 1
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || opt.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// workload is one benchmark workload. setup builds everything that
// precedes the first timed op and may be called several times (each
// call replaces the previous build); measure runs ops until dur has
// passed and at least minOps ran; layers reports the per-layer metrics
// the workload measures from result and stats fields; close releases the
// build.
type workload interface {
	setup() error
	measure(ph *phase, dur time.Duration, minOps int)
	layers(ph *phase) map[string]float64
	close()
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case wlInproc:
		return &inprocWL{list: genBcast(wlInproc, seed)}, nil
	case wlUDP:
		return &udpWL{list: genBcast(wlUDP, seed)}, nil
	case wlSched:
		return newSchedWL(seed), nil
	case wlSim:
		return &simWL{list: genSim(seed)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloads, ", "))
}

// setupReps and setupMinTotal bound the repeated set-up behind setup_s:
// at least setupReps builds, and cheap builds repeat until setupMinTotal
// has passed, so the median is not one cold-cache sample.
const (
	setupReps     = 3
	setupMaxReps  = 200
	setupMinTotal = 500 * time.Millisecond
)

// setupMedian builds the workload repeatedly and returns the median
// build time in seconds; the last build stays up. Each discarded build is
// collected before the next starts, so their garbage does not set the
// process's peak RSS.
func setupMedian(w workload) (float64, error) {
	var times []float64
	begin := time.Now()
	for len(times) < setupReps || (time.Since(begin) < setupMinTotal && len(times) < setupMaxReps) {
		if len(times) > 0 {
			w.close()
			runtime.GC()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// warmup is the untimed run before measuring: caches fill, pools grow
// and lazily built tables finish before the leak baseline is taken.
func warmup(w workload, seconds float64) {
	d := time.Duration(seconds * 0.1 * float64(time.Second))
	d = min(max(d, 200*time.Millisecond), time.Second)
	w.measure(&phase{}, d, 0)
}

func run(opt options) (*result, error) {
	w, err := newWorkload(opt.workload, opt.seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, runtime.GOMAXPROCS(0))
	setupS, err := setupMedian(w)
	if err != nil {
		return nil, err
	}
	defer w.close()
	rssSetup := maxRSSMB()
	warmup(w, opt.seconds)
	runtime.GC()
	fmt.Printf("  peak RSS after setup %.1f MB, after warm-up %.1f MB\n", rssSetup, maxRSSMB())
	base, err := snapshot()
	if err != nil {
		return nil, err
	}
	dur := time.Duration(opt.seconds * float64(time.Second))

	plain := newPhase(nil)
	plain.run(w, dur, p99MinOps)
	var traced *phase
	if opt.trace {
		traced = newPhase(newTracer())
		traced.run(w, dur, p99MinOps)
	}
	leaked, err := leaks(base, 2*time.Second)
	if err != nil {
		return nil, err
	}
	// The gap attribution's companion is measured now, before anything is
	// reported, so its leaks and failures count with the run's own.
	var comp *companion
	if opt.trace && (opt.workload == wlInproc || opt.workload == wlUDP) {
		if comp, err = runCompanion(opt); err != nil {
			return nil, err
		}
		leaked.goroutines += comp.leaked.goroutines
		leaked.fds += comp.leaked.fds
	}

	res := &result{Metrics: map[string]metricValue{}}
	e2e, err := plain.endToEnd(setupS)
	if err != nil {
		return nil, err
	}
	phases := []*phase{plain}
	if opt.trace {
		phases = append(phases, traced)
	}
	if comp != nil {
		phases = append(phases, comp.ph)
	}
	var failures []string
	for _, ph := range phases {
		res.Attempted += ph.ops
		res.Failed += ph.failed
		failures = append(failures, ph.failures...)
	}
	failedFrac := ratio(float64(res.Failed), float64(res.Attempted))
	report := e2e
	if opt.trace {
		report, err = traced.perLayer(w, plain, leaked)
		if err != nil {
			return nil, err
		}
		report["failed_frac"] = failedFrac
	}
	res.Correct = res.Failed == 0 && leaked.goroutines == 0 && leaked.fds == 0

	printLines("end-to-end", endToEnd, e2e)
	if sw, ok := w.(*simWL); ok {
		fmt.Printf("  sim_events_per_s = %.6g 1/s\n  sim_mcast_us_mean = %.6g us (simulated time, unvalidated model)\n  sim.digest = %s over %d instances\n",
			sw.layers(plain)["sim_events_per_s"], sw.meanMcastUS(), sw.digest(), len(sw.list))
	}
	fmt.Printf("  failed_frac = %g (%d of %d)\n  go.goroutines_leaked = %d\n  os.fds_leaked = %d\n",
		failedFrac, res.Failed, res.Attempted, leaked.goroutines, leaked.fds)
	for _, f := range failures {
		fmt.Println("  FAILED:", f)
	}
	if opt.trace {
		printLines("per-layer (traced phase)", perLayer, report)
		fmt.Print(traced.tr.selfTable())
		path := filepath.Join(".bench_out", fmt.Sprintf("trace-%s-%d.json", opt.workload, opt.seed))
		if err := traced.tr.writeChrome(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("  chrome trace: %s\n", path)
		if comp != nil {
			gapAttribution(opt.workload, w, traced, comp)
		}
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Value: report[m.name], Unit: m.unit}
	}
	return res, nil
}

func printLines(title string, defs []metricDef, vals map[string]float64) {
	fmt.Printf("%s:\n", title)
	for _, m := range defs {
		fmt.Printf("  %s = %.6g %s\n", m.name, vals[m.name], m.unit)
	}
}
