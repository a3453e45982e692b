package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/message"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, wl := range []string{wlInproc, wlUDP, wlSched} {
		a, b, c := genBcast(wl, 7), genBcast(wl, 7), genBcast(wl, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different instance lists", wl)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same instance list", wl)
		}
	}
	if !reflect.DeepEqual(genSim(7), genSim(7)) {
		t.Error("sim-mesh: same seed gave different instance lists")
	}
	if reflect.DeepEqual(genSim(7), genSim(8)) {
		t.Error("sim-mesh: seeds 7 and 8 gave the same instance list")
	}
	if reflect.DeepEqual(genBcast(wlInproc, 7)[0].payload(), genBcast(wlInproc, 8)[0].payload()) {
		t.Error("payload bytes do not depend on the seed")
	}
}

func TestGeneratedInstancesAreValid(t *testing.T) {
	for _, wl := range []string{wlInproc, wlUDP, wlSched} {
		for i, in := range genBcast(wl, 3) {
			seen := map[int]bool{in.Source: true}
			for _, d := range in.Dests {
				if d < 0 || d >= testbedHosts || seen[d] {
					t.Fatalf("%s instance %d: bad or repeated destination %d", wl, i, d)
				}
				seen[d] = true
			}
			pkts, err := message.Packetize(1, in.Source, in.payload(), in.PacketBytes)
			if err != nil || len(pkts) != in.Packets {
				t.Fatalf("%s instance %d: %d packets (err %v), want %d", wl, i, len(pkts), err, in.Packets)
			}
		}
	}
	for i, in := range genSim(3) {
		for _, s := range in.Sessions {
			if len(s.Dests) < 64 || len(s.Dests) > 512 || s.Packets < 1 || s.Packets > 8 {
				t.Fatalf("sim-mesh instance %d: %d dests x %d packets out of range", i, len(s.Dests), s.Packets)
			}
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	if _, err := percentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples accepted; only 9 lie beyond it")
	}
	v, err := percentile(seq(1000), 99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(seq(19), 50); err == nil {
		t.Error("p50 of 19 samples accepted; only 9 lie beyond it")
	}
	if v, err := percentile(seq(20), 50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestSelfTimeSubtractsOnlyCoveredChildIntervals(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		// Two overlapping children cover [10, 40]; one outliving the
		// parent covers [90, 100] of it.
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 40},
		{ID: 4, Parent: 1, Start: 90, End: 120},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 2, Start: 12, End: 18},
		// An unrelated span in the same window counts against nothing.
		{ID: 6, Start: 50, End: 60},
	}
	got := selfTimes(spans)
	want := []time.Duration{60, 14, 20, 30, 6, 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestWarmAllocCountsEachInstancesMedian(t *testing.T) {
	// Instance 0 ran three times, once refilling a pool (1000); instance 1
	// ran once, instance 2 twice.
	inst := []int{0, 1, 0, 0, 2, 2}
	per := []float64{1000, 30, 10, 12, 4, 6}
	if got, want := warmAlloc(inst, per), (3*12+30+2*5)/6.0; got != want {
		t.Errorf("warmAlloc = %v, want %v", got, want)
	}
}

// sink keeps the test's allocations reachable, so the compiler cannot
// put them on the stack.
var sink []*[16]byte

// TestMeterCountsEverySmallObject checks that an op's allocation is
// counted exactly, not in the whole-span lumps runtime/metrics reports
// between cache flushes: each op allocates a known number of 16-byte
// objects, fewer than one span holds, and the meter must read that count.
func TestMeterCountsEverySmallObject(t *testing.T) {
	ph := newPhase(nil)
	for op, n := range []int{1, 7, 100, 3, 50} {
		sink = make([]*[16]byte, 0, n)
		m := startMeter()
		for i := 0; i < n; i++ {
			sink = append(sink, new([16]byte))
		}
		m.stop(ph, op)
		if got := ph.opObjs[op]; got != float64(n) {
			t.Errorf("op %d allocated %d objects, meter read %v", op, n, got)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// lists this command prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, command runs %v", names, workloads)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: %s (%s) in BENCHMARK.json, %s (%s) printed",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
