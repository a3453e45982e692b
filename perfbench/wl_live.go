package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/reliable"
	"repro/internal/topology"
)

// testbedSeed fixes the paper's 64-host irregular network; --seed varies
// the ops run on it, not the machine.
const testbedSeed = 1

func newTestbed() *core.System {
	return core.NewIrregularSystem(topology.DefaultIrregular(), testbedSeed)
}

// checkDelivery verifies byte-exact delivery at every destination.
func checkDelivery(hosts map[int]*live.HostRecord, dests []int, want []byte) error {
	for _, d := range dests {
		h := hosts[d]
		if h == nil {
			return fmt.Errorf("destination %d has no record", d)
		}
		if !bytes.Equal(h.Data, want) {
			return fmt.Errorf("destination %d: %d bytes differ from the %d-byte payload", d, len(h.Data), len(want))
		}
	}
	return nil
}

// liveAcc accumulates what the live and link layers report per op.
type liveAcc struct {
	ops                                        int
	setup, firstInject, deliver, relLat, tdown time.Duration
	callWall, callCPU                          time.Duration
	sends, retransmits, duplicates, chaosDrops int64
	resyncs, badDatagrams                      uint64
}

// liveLayers turns the accumulated per-op figures and the phase's spans
// into the live.* and link.* metrics.
func liveLayers(a *liveAcc, ph *phase) map[string]float64 {
	n := float64(a.ops)
	send := ph.tr.stat("link.send")
	run := ph.tr.stat("live.run")
	return map[string]float64{
		"core.plan_us":             ph.tr.stat("core.plan").meanUS(),
		"message.packetize_us":     ph.tr.stat("message.packetize").meanUS(),
		"live.setup_us":            ratio(us(a.setup), n),
		"live.first_inject_us":     ratio(us(a.firstInject), n),
		"live.deliver_us":          ratio(us(a.deliver), n),
		"live.sends_per_op":        ratio(float64(a.sends), n),
		"live.run_self_us":         ratio(us(run.self), float64(run.calls)),
		"live.reliable_latency_us": ratio(us(a.relLat), n),
		"live.teardown_us":         ratio(us(a.tdown), n),
		"live.busy_frac":           ratio(float64(a.callCPU), float64(a.callWall)*float64(runtime.GOMAXPROCS(0))),
		"live.retransmits_per_op":  ratio(float64(a.retransmits), n),
		"live.retransmit_frac":     ratio(float64(a.retransmits), float64(a.sends)),
		"live.duplicates_per_op":   ratio(float64(a.duplicates), n),
		"link.fabric_up_us":        ph.tr.stat("link.fabric_up").meanUS(),
		"link.fabric_down_us":      ph.tr.stat("link.fabric_down").meanUS(),
		"link.attach_us":           ph.tr.stat("link.attach").meanUS(),
		"link.dial_us":             ph.tr.stat("link.dial").meanUS(),
		"link.send_calls_per_op":   ratio(float64(send.calls), n),
		"link.send_us":             send.meanUS(),
		"link.send_busy_ms_per_op": ratio(ms(send.total), n),
		"link.chaos_drops_per_op":  ratio(float64(a.chaosDrops), n),
		"link.udp_resyncs":         float64(a.resyncs),
		"link.udp_bad_datagrams":   float64(a.badDatagrams),
	}
}

// prepare plans and packetizes one instance under the op's root span.
func prepare(sys *core.System, in bcastInst, payload []byte, msgID uint32, tr *tracer, op int, root int64) (live.Session, error) {
	var plan *core.Plan
	tr.call("core.plan", op, root, func(int64) {
		plan = sys.Plan(core.Spec{Source: in.Source, Dests: in.Dests, Packets: in.Packets, Policy: core.OptimalTree})
	})
	var pkts [][]byte
	var err error
	tr.call("message.packetize", op, root, func(int64) {
		pkts, err = message.Packetize(msgID, in.Source, payload, in.PacketBytes)
	})
	if err != nil {
		return live.Session{}, fmt.Errorf("packetize: %w", err)
	}
	if len(pkts) != in.Packets {
		return live.Session{}, fmt.Errorf("packetize: %d packets, instance has %d", len(pkts), in.Packets)
	}
	return live.Session{Tree: plan.Tree, Packets: pkts, MsgID: msgID}, nil
}

// inprocWL is bcast-inproc: one closed-loop client broadcasting over the
// in-process live fabric. Timed: Packetize, Plan, live.Run.
type inprocWL struct {
	list []bcastInst
	sys  *core.System
	acc  liveAcc
}

func (w *inprocWL) setup() error { w.sys = newTestbed(); return nil }
func (w *inprocWL) close()       {}

func (w *inprocWL) measure(ph *phase, dur time.Duration, minOps int) {
	w.acc = liveAcc{}
	closedLoop(ph, dur, minOps, func(i int) error {
		in := w.list[i%len(w.list)]
		payload := in.payload()
		tr := ph.tr
		root := tr.newID()
		t0 := tr.now()
		m := startMeter()
		msgID := uint32(i + 1)
		sess, err := prepare(w.sys, in, payload, msgID, tr, i, root)
		if err != nil {
			m.stop(ph, i%len(w.list))
			return err
		}
		var res *live.Result
		var callWall, callCPU time.Duration
		tr.call("live.run", i, root, func(int64) {
			c0, w0 := cpuTime(), time.Now()
			res, err = live.Run([]live.Session{sess}, live.Config{BufferPackets: in.Buffer})
			callWall, callCPU = time.Since(w0), cpuTime()-c0
		})
		m.stop(ph, i%len(w.list))
		tr.record(span{ID: root, Op: i, Name: "bench.op", TID: 1, Start: t0, End: tr.now()})
		if err != nil {
			return fmt.Errorf("live.Run: %w", err)
		}
		sr := res.Sessions[0]
		if err := checkDelivery(sr.Hosts, in.Dests, payload); err != nil {
			return err
		}
		if want := len(in.Dests) * in.Packets; res.Sends != want {
			return fmt.Errorf("sends %d, want (n-1)*m = %d", res.Sends, want)
		}
		a := &w.acc
		a.ops++
		a.setup += callWall - res.Wall
		a.firstInject += sr.StartAt
		a.deliver += sr.Latency
		a.sends += int64(res.Sends)
		a.callWall += callWall
		a.callCPU += callCPU
		ph.good += float64(len(payload) * len(in.Dests))
		return nil
	})
}

func (w *inprocWL) layers(ph *phase) map[string]float64 { return liveLayers(&w.acc, ph) }

// udpWL is bcast-udp-reliable: one closed-loop client running the
// reliable protocol over a fresh loopback UDP fabric per op. Timed:
// NewLoopbackUDP, RunReliable, Close. Planning and packetizing precede
// the timed span.
type udpWL struct {
	list []bcastInst
	sys  *core.System
	acc  liveAcc
}

func (w *udpWL) setup() error { w.sys = newTestbed(); return nil }
func (w *udpWL) close()       {}

func (w *udpWL) measure(ph *phase, dur time.Duration, minOps int) {
	w.acc = liveAcc{}
	closedLoop(ph, dur, minOps, func(i int) error {
		in := w.list[i%len(w.list)]
		payload := in.payload()
		tr := ph.tr
		root := tr.newID()
		t0 := tr.now()
		sess, err := prepare(w.sys, in, payload, uint32(i+1), tr, i, root)
		if err != nil {
			return err
		}
		cfg := live.DefaultReliableConfig()
		cfg.Faults = link.Faults{Seed: in.FaultSeed, DropRate: udpDropRate}

		m := startMeter()
		var nw *link.UDPNetwork
		tr.call("link.fabric_up", i, root, func(int64) {
			nw, err = link.NewLoopbackUDP(sess.Tree.Nodes(), link.UDPConfig{Session: uint64(i) + 1})
		})
		if err != nil {
			m.stop(ph, i%len(w.list))
			return fmt.Errorf("NewLoopbackUDP: %w", err)
		}
		var res *live.ReliableResult
		var callWall, callCPU time.Duration
		tr.call("live.run", i, root, func(id int64) {
			cfg.Live.Network = nw
			if tr != nil {
				cfg.Live.Network = &timedNet{nw: nw, tr: tr, op: i, parent: id}
			}
			c0, w0 := cpuTime(), time.Now()
			res, err = live.RunReliable(sess, cfg)
			callWall, callCPU = time.Since(w0), cpuTime()-c0
		})
		var closeErr error
		tr.call("link.fabric_down", i, root, func(int64) { closeErr = nw.Close() })
		m.stop(ph, i%len(w.list))
		tr.record(span{ID: root, Op: i, Name: "bench.op", TID: 1, Start: t0, End: tr.now()})
		if err != nil {
			return fmt.Errorf("live.RunReliable: %w", err)
		}
		if closeErr != nil {
			return fmt.Errorf("close fabric: %w", closeErr)
		}
		if res.Status != reliable.Delivered {
			return fmt.Errorf("status %v, want Delivered", res.Status)
		}
		if err := checkDelivery(res.Hosts, in.Dests, payload); err != nil {
			return err
		}
		st := nw.Stats()
		a := &w.acc
		a.resyncs += st.Resyncs
		a.badDatagrams += st.BadDatagrams
		if st.BadDatagrams != 0 {
			return fmt.Errorf("%d bad datagrams on loopback", st.BadDatagrams)
		}
		a.ops++
		a.setup += callWall - res.Wall
		a.relLat += res.Latency
		a.tdown += res.Wall - res.Latency
		a.sends += int64(res.Sends)
		a.retransmits += int64(res.Retransmits)
		a.duplicates += int64(res.Duplicates)
		a.chaosDrops += res.Faults.Dropped
		a.callWall += callWall
		a.callCPU += callCPU
		ph.good += float64(len(payload) * len(in.Dests))
		return nil
	})
}

func (w *udpWL) layers(ph *phase) map[string]float64 { return liveLayers(&w.acc, ph) }
