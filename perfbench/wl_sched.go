package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/message"
	"repro/internal/sched"
)

// schedBatch is how many sessions one sched-batch op submits at once:
// twice the scheduler's default window of 64, so half of every batch
// waits in the admission queue while the other half shares the fabric.
// The 512-instance list holds four whole batches.
const schedBatch = 128

// schedWL is sched-batch: one closed-loop client that submits a batch of
// small sessions to one persistent scheduler over the 64-host testbed and
// waits for all of them before the next batch.
type schedWL struct {
	list     []bcastInst
	payloads [][]byte
	sys      *core.System
	s        *sched.Scheduler
	nextID   uint32
	acc      schedAcc
}

// schedAcc is what one measured phase of sched-batch observed.
type schedAcc struct {
	queueWait, inflight []float64 // us, per session
	stats0, stats1      sched.Stats
}

func newSchedWL(seed uint64) *schedWL {
	w := &schedWL{list: genBcast(wlSched, seed)}
	for _, in := range w.list {
		w.payloads = append(w.payloads, in.payload())
	}
	return w
}

func (w *schedWL) setup() error {
	w.sys = newTestbed()
	hosts := make([]int, testbedHosts)
	for i := range hosts {
		hosts[i] = i
	}
	s, err := sched.New(hosts, sched.Config{})
	if err != nil {
		return err
	}
	w.s = s
	return nil
}

func (w *schedWL) close() {
	if w.s != nil {
		w.s.Close()
		w.s = nil
	}
}

func (w *schedWL) measure(ph *phase, dur time.Duration, minOps int) {
	w.acc = schedAcc{stats0: w.s.Stats()}
	batches := len(w.list) / schedBatch
	hs := make([]*sched.Handle, 0, schedBatch)
	res := make([]*sched.Result, schedBatch)
	errs := make([]error, schedBatch)
	closedLoop(ph, dur, minOps, func(i int) error {
		b := i % batches
		first := b * schedBatch
		tr := ph.tr
		root := tr.newID()
		t0 := tr.now()
		m := startMeter()
		hs = hs[:0]
		err := w.submitBatch(tr, i, root, first, &hs)
		w0 := tr.now()
		// Every submitted session is waited for, also after a failed
		// submit, so none outlives its op.
		for k, h := range hs {
			res[k], errs[k] = h.Wait()
		}
		m.stop(ph, b)
		end := tr.now()
		tr.record(span{ID: tr.newID(), Parent: root, Op: i, Name: "sched.wait", TID: 1, Start: w0, End: end})
		tr.record(span{ID: root, Op: i, Name: "bench.op", TID: 1, Start: t0, End: end})
		if err != nil {
			return err
		}
		for k := range hs {
			if errs[k] != nil {
				return fmt.Errorf("session %d: %w", k, errs[k])
			}
			in := w.list[first+k]
			if err := checkDelivery(res[k].Hosts, in.Dests, w.payloads[first+k]); err != nil {
				return fmt.Errorf("session %d: %w", k, err)
			}
			w.acc.queueWait = append(w.acc.queueWait, us(res[k].QueueWait))
			w.acc.inflight = append(w.acc.inflight, us(res[k].Latency))
			ph.good += float64(len(w.payloads[first+k]) * len(in.Dests))
		}
		return nil
	})
	w.acc.stats1 = w.s.Stats()
}

// submitBatch plans, packetizes and submits the batch of sessions that
// starts at instance first, appending each handle to hs. It stops at the
// first error.
func (w *schedWL) submitBatch(tr *tracer, op int, root int64, first int, hs *[]*sched.Handle) error {
	for k := first; k < first+schedBatch; k++ {
		in := w.list[k]
		w.nextID++
		var sess live.Session
		var err error
		tr.call("sched.plan", op, root, func(int64) {
			sess.Tree, _, err = w.s.PlanBcast(w.sys, in.Source, in.Dests, in.Packets)
		})
		if err != nil {
			return fmt.Errorf("plan: %w", err)
		}
		tr.call("message.packetize", op, root, func(int64) {
			sess.Packets, err = message.Packetize(w.nextID, in.Source, w.payloads[k], in.PacketBytes)
		})
		if err != nil {
			return fmt.Errorf("packetize: %w", err)
		}
		sess.MsgID = w.nextID
		var h *sched.Handle
		tr.call("sched.submit", op, root, func(int64) { h, err = w.s.Submit(sess) })
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		*hs = append(*hs, h)
	}
	return nil
}

func (w *schedWL) layers(ph *phase) map[string]float64 {
	a := &w.acc
	pct := func(xs []float64, p float64) float64 {
		v, err := percentile(append([]float64(nil), xs...), p)
		if err != nil {
			return 0
		}
		return v
	}
	rejected := func(s sched.Stats) int {
		return s.RejectedFull + s.RejectedDuplicate + s.TimedOutQueue + s.TimedOutInflight + s.Failed
	}
	return map[string]float64{
		"sched.plan_us":           ph.tr.stat("sched.plan").meanUS(),
		"message.packetize_us":    ph.tr.stat("message.packetize").meanUS(),
		"sched.submit_us":         ph.tr.stat("sched.submit").meanUS(),
		"sched.wait_ms":           ph.tr.stat("sched.wait").meanUS() / 1e3,
		"sched.queue_wait_p50_us": pct(a.queueWait, 50),
		"sched.queue_wait_p99_us": pct(a.queueWait, 99),
		"sched.inflight_p50_us":   pct(a.inflight, 50),
		"sched.inflight_p99_us":   pct(a.inflight, 99),
		"sched.max_inflight":      float64(a.stats1.MaxInflight),
		"sched.rejected":          float64(rejected(a.stats1) - rejected(a.stats0)),
		"sched.dropped_frames":    float64(a.stats1.DroppedFrames - a.stats0.DroppedFrames),
	}
}
