package main

import (
	"repro/internal/live/link"
)

// timedNet wraps the fabric handed to the runtime as Live.Network and
// records a span for every Attach, Dial and Transport.Send, all parented
// to the runtime call. Send spans include any time the sender spends
// blocked on credits, so their sum is the transport's busy time.
type timedNet struct {
	nw     link.Network
	tr     *tracer
	op     int
	parent int64
}

func (n *timedNet) timed(name string, tid int, fn func()) {
	id := n.tr.newID()
	start := n.tr.now()
	fn()
	n.tr.record(span{ID: id, Parent: n.parent, Op: n.op, Name: name, TID: tid, Start: start, End: n.tr.now()})
}

func (n *timedNet) Attach(host int, in *link.Inbox) (err error) {
	n.timed("link.attach", 1, func() { err = n.nw.Attach(host, in) })
	return err
}

func (n *timedNet) Dial(from, to int) (link.Transport, error) {
	var t link.Transport
	var err error
	n.timed("link.dial", 1, func() { t, err = n.nw.Dial(from, to) })
	if err != nil {
		return nil, err
	}
	return &timedTransport{Transport: t, n: n, tid: 1000 + from*testbedHosts + to}, nil
}

func (n *timedNet) Detach(host int) { n.nw.Detach(host) }

// timedTransport is one dialed edge; like every Transport it is owned by
// one sending goroutine, whose spans share a trace row (tid).
type timedTransport struct {
	link.Transport
	n   *timedNet
	tid int
}

func (t *timedTransport) Send(payload []byte, abort <-chan struct{}) (err error) {
	t.n.timed("link.send", t.tid, func() { err = t.Transport.Send(payload, abort) })
	return err
}
