package main

import (
	"fmt"
	"time"
)

// phase is one measurement window of a workload: untraced (tr == nil)
// for the end-to-end metrics, or traced for the per-layer ones. Only the
// goroutine running the workload's measure writes it.
type phase struct {
	tr       *tracer
	lat      []float64 // op latency, ms
	ops      int       // ops attempted
	failed   int
	failures []string // the first few failure messages

	// busy is the time the system under test had an op in hand: the sum
	// of timed op spans.
	busy time.Duration
	cpu  time.Duration // process CPU during busy
	heap heapCounts    // heap allocation during busy
	// opInst, opKB and opObjs are each timed op's instance and heap
	// allocation (closed loops).
	opInst       []int
	opKB, opObjs []float64
	gcPause      time.Duration // GC pause during the whole window
	good         float64       // verified payload bytes x destinations
}

func newPhase(tr *tracer) *phase { return &phase{tr: tr} }

// p99MinOps is the fewest ops a measured phase runs: p99 needs ten
// samples beyond it. A closed loop slower than dur/p99MinOps per op runs
// past dur rather than report a tail it did not sample.
const p99MinOps = 1000

func (ph *phase) run(w workload, dur time.Duration, minOps int) {
	g0 := gcPause()
	w.measure(ph, dur, minOps)
	ph.gcPause = gcPause() - g0
	ph.tr.flush()
}

func (ph *phase) fail(op int, err error) {
	ph.failed++
	if len(ph.failures) < 10 {
		ph.failures = append(ph.failures, fmt.Sprintf("op %d: %v", op, err))
	}
}

// meter brackets one timed op: wall, process CPU and heap allocation.
// The heap probe stops the world, so it runs outside both the wall-clock
// and the CPU interval.
type meter struct {
	t0 time.Time
	c0 time.Duration
	h0 heapCounts
}

func startMeter() meter {
	h := exactHeap()
	c := cpuTime()
	return meter{t0: time.Now(), c0: c, h0: h}
}

// stop ends the timed span of an op on instance inst, charges it to the
// phase and returns it.
func (m meter) stop(ph *phase, inst int) time.Duration {
	el := time.Since(m.t0)
	ph.cpu += cpuTime() - m.c0
	d := exactHeap().sub(m.h0)
	ph.heap.bytes += d.bytes
	ph.heap.objects += d.objects
	ph.opInst = append(ph.opInst, inst)
	ph.opKB = append(ph.opKB, float64(d.bytes)/1024)
	ph.opObjs = append(ph.opObjs, float64(d.objects))
	ph.busy += el
	ph.lat = append(ph.lat, ms(el))
	return el
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// closedLoop runs op back to back — one client, the next op only after
// the previous one returned — until dur has passed and at least minOps
// ran. Spans are flushed between ops, when none is open.
func closedLoop(ph *phase, dur time.Duration, minOps int, op func(i int) error) {
	start := time.Now()
	for i := 0; time.Since(start) < dur || i < minOps; i++ {
		ph.ops++
		if err := op(i); err != nil {
			ph.fail(i, err)
		}
		ph.tr.flush()
	}
}

// endToEnd computes the untraced metrics.
func (ph *phase) endToEnd(setupS float64) (map[string]float64, error) {
	p50, err := percentile(append([]float64(nil), ph.lat...), 50)
	if err != nil {
		return nil, fmt.Errorf("op_p50_ms: %w", err)
	}
	p99, err := percentile(append([]float64(nil), ph.lat...), 99)
	if err != nil {
		return nil, fmt.Errorf("op_p99_ms: %w", err)
	}
	n := float64(ph.ops)
	busy := ph.busy.Seconds()
	return map[string]float64{
		"setup_s":         setupS,
		"op_p50_ms":       p50,
		"op_p99_ms":       p99,
		"ops_per_s":       ratio(n-float64(ph.failed), busy),
		"goodput_MBps":    ratio(ph.good, busy) / 1e6,
		"cpu_ms_per_op":   ratio(ms(ph.cpu), n),
		"alloc_KB_per_op": warmAlloc(ph.opInst, ph.opKB),
		"allocs_per_op":   warmAlloc(ph.opInst, ph.opObjs),
		"max_rss_MB":      maxRSSMB(),
	}, nil
}

// warmAlloc is a closed loop's steady-state allocation per op: each op
// counts the median of what the ops on its instance allocated in the
// phase, each counted exactly. The plain mean also carries the rare op
// that refills a sync.Pool the last GC emptied, and how many GCs land in
// a run varies from run to run; the means are the per-layer
// go.*_per_op_mean metrics.
func warmAlloc(inst []int, per []float64) float64 {
	byInst := map[int][]float64{}
	for i, k := range inst {
		byInst[k] = append(byInst[k], per[i])
	}
	mid := map[int]float64{}
	for k, xs := range byInst {
		mid[k] = median(xs)
	}
	sum := 0.0
	for _, k := range inst {
		sum += mid[k]
	}
	return ratio(sum, float64(len(inst)))
}

// perLayer computes the traced metrics: the workload's own, the generic
// per-layer allocation and the leak and overhead figures; a metric of a
// layer the workload never calls is absent and reads 0. untraced is the
// preceding untraced phase of the same run. failed_frac, which counts
// every phase of the run, is the caller's.
func (ph *phase) perLayer(w workload, untraced *phase, leaked resources) (map[string]float64, error) {
	m := w.layers(ph)
	for _, layer := range []string{"core", "message", "live", "link", "sched", "psim", "sim"} {
		m[layer+".alloc_KB_per_call"] = ph.tr.layerAlloc(layer)
	}
	m["go.goroutines_leaked"] = float64(leaked.goroutines)
	m["os.fds_leaked"] = float64(leaked.fds)
	m["go.gc_pause_ms_per_op"] = ratio(ms(ph.gcPause), float64(ph.ops))
	m["go.alloc_KB_per_op_mean"] = ratio(float64(ph.heap.bytes)/1024, float64(ph.ops))
	m["go.allocs_per_op_mean"] = ratio(float64(ph.heap.objects), float64(ph.ops))
	p50t, err := percentile(append([]float64(nil), ph.lat...), 50)
	if err != nil {
		return nil, fmt.Errorf("traced op_p50_ms: %w", err)
	}
	p50u, err := percentile(append([]float64(nil), untraced.lat...), 50)
	if err != nil {
		return nil, fmt.Errorf("op_p50_ms: %w", err)
	}
	m["bench.trace_overhead_frac"] = p50t/p50u - 1
	return m, nil
}

// companion is the other of bcast-inproc and bcast-udp-reliable,
// measured traced for a short window for the gap attribution.
type companion struct {
	name   string
	w      workload
	ph     *phase
	leaked resources
}

// runCompanion sets the companion up, warms it, measures it traced and
// checks it for leaks against its own post-warm-up baseline, as run does
// for the run's own workload.
func runCompanion(opt options) (*companion, error) {
	c := &companion{name: wlUDP}
	if opt.workload == wlUDP {
		c.name = wlInproc
	}
	var err error
	if c.w, err = newWorkload(c.name, opt.seed); err != nil {
		return nil, err
	}
	if err := c.w.setup(); err != nil {
		return nil, fmt.Errorf("%s setup: %w", c.name, err)
	}
	defer c.w.close()
	warmup(c.w, opt.seconds)
	base, err := snapshot()
	if err != nil {
		return nil, err
	}
	c.ph = newPhase(newTracer())
	c.ph.run(c.w, time.Duration(min(max(opt.seconds/4, 1), 3)*float64(time.Second)), 0)
	for i, f := range c.ph.failures {
		c.ph.failures[i] = c.name + " " + f
	}
	if c.leaked, err = leaks(base, 2*time.Second); err != nil {
		return nil, err
	}
	return c, nil
}

// gapAttribution prints, side by side, where a median in-process op and
// a median reliable-UDP op spend their time: the run's own workload from
// its traced phase, the other from the companion.
func gapAttribution(name string, w workload, traced *phase, comp *companion) {
	cols := map[string]*phase{name: traced, comp.name: comp.ph}
	wls := map[string]workload{name: w, comp.name: comp.w}
	rows := []struct {
		label string
		val   func(ph *phase, l map[string]float64) float64
	}{
		{"op_p50_ms (traced)", func(ph *phase, _ map[string]float64) float64 {
			v, _ := percentile(append([]float64(nil), ph.lat...), 50)
			return v
		}},
		{"plan (core.plan)", spanMS("core.plan")},
		{"packetize (message.packetize)", spanMS("message.packetize")},
		{"fabric up (link.fabric_up)", spanMS("link.fabric_up")},
		{"fabric down (link.fabric_down)", spanMS("link.fabric_down")},
		{"transport send busy (sum)", func(_ *phase, l map[string]float64) float64 { return l["link.send_busy_ms_per_op"] }},
		{"runtime setup (live.setup_us)", layerMS("live.setup_us")},
		{"runtime delivery (deliver/reliable_latency)", func(_ *phase, l map[string]float64) float64 {
			return (l["live.deliver_us"] + l["live.reliable_latency_us"]) / 1e3
		}},
		{"post-delivery wait (live.teardown_us)", layerMS("live.teardown_us")},
		{"idle share (1 - live.busy_frac)", func(_ *phase, l map[string]float64) float64 { return 1 - l["live.busy_frac"] }},
	}
	fmt.Printf("gap attribution, mean ms per op unless noted (plan and packetize run outside the timed op on %s):\n", wlUDP)
	fmt.Printf("  %-46s %14s %20s\n", "row", wlInproc, wlUDP)
	layers := map[string]map[string]float64{}
	for n, ph := range cols {
		layers[n] = wls[n].layers(ph)
	}
	for _, r := range rows {
		fmt.Printf("  %-46s %14.4f %20.4f\n", r.label,
			r.val(cols[wlInproc], layers[wlInproc]), r.val(cols[wlUDP], layers[wlUDP]))
	}
}

// spanMS is the mean time per op spent in spans of one name.
func spanMS(name string) func(ph *phase, _ map[string]float64) float64 {
	return func(ph *phase, _ map[string]float64) float64 {
		return ratio(ms(ph.tr.stat(name).total), float64(ph.ops))
	}
}

func layerMS(metric string) func(ph *phase, l map[string]float64) float64 {
	return func(_ *phase, l map[string]float64) float64 { return l[metric] / 1e3 }
}
