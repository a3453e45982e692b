package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/psim"
	"repro/internal/sim"
	"repro/internal/stepsim"
)

// simWL is sim-mesh: one closed-loop client running the parallel
// simulator on the 4096-host mesh. Timed: psim.Concurrent. Before the
// ops run, every instance is planned and run once on the serial
// sim.Concurrent; that result is the oracle each psim result of the
// instance must equal. Doing this up front keeps the serial engine's
// allocation out of the measured window's GC cycles.
type simWL struct {
	list   []simInst
	sys    *core.System
	plans  [][]sim.Session
	oracle []*sim.ConcurrentResult
	acc    simAcc
}

type simAcc struct {
	ops                     int
	events, windows, mailed int
	psimTime                time.Duration
}

func (w *simWL) setup() error {
	w.sys = core.NewMeshSystem(meshArity, meshDims)
	w.plans, w.oracle = nil, nil
	return nil
}

func (w *simWL) close() {}

// simParams are the paper's Section 5.2 defaults.
var simParams = sim.DefaultParams()

// prepare plans every instance and computes its serial oracle, as spans
// of op -1 when traced.
func (w *simWL) prepare(tr *tracer) {
	root := tr.newID()
	t0 := tr.now()
	w.plans = make([][]sim.Session, len(w.list))
	w.oracle = make([]*sim.ConcurrentResult, len(w.list))
	for k, in := range w.list {
		for _, s := range in.Sessions {
			var p *core.Plan
			tr.call("core.plan", -1, root, func(int64) {
				p = w.sys.Plan(core.Spec{Source: s.Source, Dests: s.Dests, Packets: s.Packets, Policy: core.OptimalTree})
			})
			w.plans[k] = append(w.plans[k], sim.Session{Tree: p.Tree, Packets: s.Packets})
		}
		tr.call("sim.run", -1, root, func(int64) {
			w.oracle[k] = sim.Concurrent(w.sys.Router, w.plans[k], simParams, stepsim.FPFS)
		})
	}
	tr.record(span{ID: root, Op: -1, Name: "bench.prepare", TID: 1, Start: t0, End: tr.now()})
	tr.flush()
}

func (w *simWL) measure(ph *phase, dur time.Duration, minOps int) {
	// A traced phase prepares afresh so its spans price core.Plan and the
	// serial engine.
	if w.oracle == nil || ph.tr != nil {
		w.prepare(ph.tr)
	}
	w.acc = simAcc{}
	closedLoop(ph, dur, minOps, func(i int) error {
		k := i % len(w.list)
		tr := ph.tr
		root := tr.newID()
		t0 := tr.now()
		var ws psim.WindowStats
		var res *sim.ConcurrentResult
		m := startMeter()
		tr.call("psim.run", i, root, func(int64) {
			res = psim.Concurrent(w.sys.Router, w.plans[k], simParams, stepsim.FPFS,
				psim.Config{Workers: runtime.GOMAXPROCS(0), Stats: &ws})
		})
		el := m.stop(ph, k)
		tr.record(span{ID: root, Op: i, Name: "bench.op", TID: 1, Start: t0, End: tr.now()})
		if !reflect.DeepEqual(res, w.oracle[k]) {
			return fmt.Errorf("instance %d: psim result differs from serial sim.Concurrent", k)
		}
		good := 0.0
		for si, s := range w.list[k].Sessions {
			if got := len(res.Sessions[si].HostDone); got != len(s.Dests) {
				return fmt.Errorf("instance %d session %d: %d of %d destinations done", k, si, got, len(s.Dests))
			}
			good += float64(s.Packets * simParams.PacketBytes * len(s.Dests))
		}
		ph.good += good
		a := &w.acc
		a.ops++
		a.events += ws.Events
		a.windows += ws.Windows
		a.mailed += ws.Mailed
		a.psimTime += el
		return nil
	})
}

func (w *simWL) layers(ph *phase) map[string]float64 {
	a := &w.acc
	n := float64(a.ops)
	return map[string]float64{
		"core.plan_us":           ph.tr.stat("core.plan").meanUS(),
		"psim.run_ms":            ph.tr.stat("psim.run").meanUS() / 1e3,
		"psim.events_per_op":     ratio(float64(a.events), n),
		"psim.windows_per_op":    ratio(float64(a.windows), n),
		"psim.events_per_window": ratio(float64(a.events), float64(a.windows)),
		"psim.mailed_frac":       ratio(float64(a.mailed), float64(a.events)),
		"sim.run_ms":             ph.tr.stat("sim.run").meanUS() / 1e3,
		"sim_events_per_s":       ratio(float64(a.events), a.psimTime.Seconds()),
		"sim_mcast_us_mean":      w.meanMcastUS(),
	}
}

// meanMcastUS is the mean simulated multicast latency over every session
// of the instance list, in simulated microseconds. It is a model output:
// a pure function of the seed.
func (w *simWL) meanMcastUS() float64 {
	var xs []float64
	for _, r := range w.oracle {
		for _, s := range r.Sessions {
			xs = append(xs, s.Latency)
		}
	}
	return mean(xs)
}

// digest hashes every simulated result of the instance list in order, so
// two commits compare their simulated outputs exactly.
func (w *simWL) digest() string {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	putMap := func(m map[int]float64) {
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			put(uint64(k))
			putF(m[k])
		}
	}
	for _, r := range w.oracle {
		for _, s := range r.Sessions {
			putF(s.Latency)
			putMap(s.NIDone)
			putMap(s.HostDone)
		}
		bufKeys := make([]int, 0, len(r.MaxBuffered))
		for k := range r.MaxBuffered {
			bufKeys = append(bufKeys, k)
		}
		sort.Ints(bufKeys)
		for _, k := range bufKeys {
			put(uint64(k))
			put(uint64(r.MaxBuffered[k]))
		}
		putF(r.ChannelWait)
		put(uint64(r.Sends))
		putF(r.Makespan)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
