package main

import (
	"math/rand/v2"

	"repro/internal/message"
)

// Workload names. They are the benchmark's contract: later changes name
// their claims by these strings.
const (
	wlInproc = "bcast-inproc"
	wlUDP    = "bcast-udp-reliable"
	wlSched  = "sched-batch"
	wlSim    = "sim-mesh"
)

var workloads = []string{wlInproc, wlUDP, wlSched, wlSim}

const (
	testbedHosts = 64 // topology.DefaultIrregular: 64 hosts on 16 switches
	meshArity    = 64 // core.NewMeshSystem(64, 2): 4096 hosts
	meshDims     = 2
	meshHosts    = meshArity * meshArity

	// udpDropRate is low enough that most bcast-udp-reliable ops see no
	// loss (p50 prices the clean path) and high enough that more than 1%
	// of ops hit a retransmit (p99 prices recovery).
	udpDropRate = 0.0005
)

// bcastInst is one broadcast: a source, its destinations, the message
// length in packets and the packet size. Buffer is the NI buffer bound
// (0 = unbounded); PayloadSeed regenerates the payload bytes, which are
// not stored so a long instance list stays small.
type bcastInst struct {
	Source      int
	Dests       []int
	Packets     int
	PacketBytes int
	Buffer      int
	PayloadSeed uint64
	FaultSeed   uint64
}

// payloadLen is the message length in bytes that packetizes into exactly
// Packets packets: the last packet is filled by a seeded fraction.
func (in bcastInst) payloadLen(frac uint64) int {
	per := in.PacketBytes - message.HeaderSize
	return (in.Packets-1)*per + 1 + int(frac%uint64(per))
}

// payload regenerates the instance's message bytes.
func (in bcastInst) payload() []byte {
	r := rand.New(rand.NewPCG(in.PayloadSeed, 0x9e3779b97f4a7c15))
	b := make([]byte, in.payloadLen(r.Uint64()))
	for i := 0; i < len(b); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

// simInst is one sim-mesh op: concurrent sessions started together.
type simInst struct {
	Sessions []simSess
}

type simSess struct {
	Source  int
	Dests   []int
	Packets int
}

// Instance-list sizes (bcastListLen is a minimum: a live workload's list
// holds every combination of its cost-setting properties). A run cycles
// through its list.
const (
	bcastListLen = 512
	simListLen   = 128
)

// newRNG derives the stream for one workload from the seed; distinct
// workloads draw from distinct streams.
func newRNG(seed uint64, workload string) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(workload); i++ {
		h = (h ^ uint64(workload[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// balanced returns n values in [0, k), each value equally often (up to
// one), in seeded order. Drawing an instance property from it instead of
// independently fixes the property's distribution across seeds, so runs
// on different seeds measure the same mix.
func balanced(r *rand.Rand, n, k int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i % k
	}
	r.Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
	return v
}

// spread maps j in [0, n) evenly onto [lo, hi].
func spread(j, n, lo, hi int) int { return lo + j*(hi-lo+1)/n }

// pickDests draws n distinct hosts of [0, hosts) other than src.
func pickDests(r *rand.Rand, hosts, src, n int) []int {
	perm := r.Perm(hosts)
	dests := make([]int, 0, n)
	for _, h := range perm {
		if h != src {
			dests = append(dests, h)
			if len(dests) == n {
				break
			}
		}
	}
	return dests
}

// combos returns every tuple of values in [0, dims[0]) x [0, dims[1]) x
// ..., repeated until there are at least minLen, in seeded order. Drawing
// the properties that set an op's cost from it fixes the workload's mix
// exactly, joint distribution included; the seed picks the order, the
// hosts and the bytes.
func combos(r *rand.Rand, minLen int, dims ...int) [][]int {
	total := 1
	for _, d := range dims {
		total *= d
	}
	var out [][]int
	for len(out) < minLen {
		for idx := 0; idx < total; idx++ {
			t := make([]int, len(dims))
			for j, x := len(dims)-1, idx; j >= 0; j-- {
				t[j] = x % dims[j]
				x /= dims[j]
			}
			out = append(out, t)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// genBcast generates the instance list of one of the three live
// workloads.
func genBcast(workload string, seed uint64) []bcastInst {
	r := newRNG(seed, workload)
	var cs [][]int
	switch workload {
	case wlInproc:
		cs = combos(r, bcastListLen, 56, 7, 2) // 8..63 dests, 2^0..2^6 packets, buffer
	case wlUDP:
		cs = combos(r, bcastListLen, 24, 16, 3) // 8..31 dests, 1..16 packets, packet size
	case wlSched:
		cs = combos(r, bcastListLen, 8) // 1..8 packets
	default:
		panic("genBcast: not a live workload: " + workload)
	}
	list := make([]bcastInst, len(cs))
	for i, c := range cs {
		in := bcastInst{Source: r.IntN(testbedHosts), PacketBytes: 64}
		dests := 7
		switch workload {
		case wlInproc:
			dests = 8 + c[0]
			in.Packets = 1 << c[1]
			in.Buffer = []int{0, 2}[c[2]] // unbounded or 2-packet NI buffers
		case wlUDP:
			dests = 8 + c[0]
			in.Packets = 1 + c[1]
			in.PacketBytes = []int{64, 1024, 4096}[c[2]]
			in.FaultSeed = r.Uint64()
		case wlSched:
			in.Packets = 1 + c[0]
		}
		in.Dests = pickDests(r, testbedHosts, in.Source, dests)
		in.PayloadSeed = r.Uint64()
		list[i] = in
	}
	return list
}

// genSim generates the sim-mesh instance list.
func genSim(seed uint64) []simInst {
	r := newRNG(seed, wlSim)
	count := balanced(r, simListLen, 4) // 1..4 concurrent sessions
	total := 0
	for _, c := range count {
		total += 1 + c
	}
	nd := balanced(r, total, total) // 64..512 destinations, evenly
	pk := balanced(r, total, 8)     // 1..8 packets
	list := make([]simInst, simListLen)
	j := 0
	for i := range list {
		ss := make([]simSess, 1+count[i])
		for s := range ss {
			src := r.IntN(meshHosts)
			ss[s] = simSess{
				Source:  src,
				Dests:   pickDests(r, meshHosts, src, spread(nd[j], total, 64, 512)),
				Packets: 1 + pk[j],
			}
			j++
		}
		list[i] = simInst{Sessions: ss}
	}
	return list
}
