// Package par is a message-passing SPMD runtime on top of the simulated
// two-layer interconnect — the analogue of the paper's Panda/Orca layer.
//
// A parallel program is a Job function executed once per processor. Each
// instance gets an Env with its global rank, cluster information, and
// blocking communication primitives (asynchronous sends, selective
// receives, RPC, barrier). All communication costs virtual time according
// to the network model; computation is charged explicitly with
// Env.Compute.
package par

import (
	"fmt"
	"math/rand"

	"twolayer/internal/network"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
)

// Job is the body of an SPMD program, run once per processor.
type Job func(e *Env)

// Env is one processor's view of the runtime.
type Env struct {
	rt   *runtime
	p    *sim.Proc
	rank int
	mb   mailbox
	rng  *rand.Rand

	nextReplyTag Tag
	sends        int64 // messages sent by this rank

	// Reliable-transport state, allocated lazily and only when the run has
	// fault injection (or Transport.Enabled) turned on.
	relS   []*relSender // per-destination go-back-N senders
	relExp []int64      // per-source next expected sequence number
}

// Rank returns the processor's global rank in [0, Size).
func (e *Env) Rank() int { return e.rank }

// Size returns the total number of processors.
func (e *Env) Size() int { return e.rt.topo.Procs() }

// Topology returns the machine shape.
func (e *Env) Topology() *topology.Topology { return e.rt.topo }

// Cluster returns the index of the processor's cluster.
func (e *Env) Cluster() int { return e.rt.topo.ClusterOf(e.rank) }

// Clusters returns the number of clusters.
func (e *Env) Clusters() int { return e.rt.topo.Clusters() }

// ClusterRank returns the processor's index within its cluster.
func (e *Env) ClusterRank() int { return e.rt.topo.RankInCluster(e.rank) }

// ClusterPeers returns the global ranks in the processor's own cluster.
func (e *Env) ClusterPeers() []int { return e.rt.topo.RanksIn(e.Cluster()) }

// Coordinator returns the designated coordinator rank of cluster c (its
// first rank), used by the cluster-aware optimizations.
func (e *Env) Coordinator(c int) int { return e.rt.topo.FirstRank(c) }

// SameCluster reports whether the given rank is in this processor's cluster.
func (e *Env) SameCluster(other int) bool { return e.rt.topo.SameCluster(e.rank, other) }

// Now returns the current virtual time.
func (e *Env) Now() sim.Time { return e.p.Now() }

// Adaptive reports whether the run asked the application layers to adapt to
// a dynamic regime (Options.Adaptive with a regime configured). Static runs
// — and regime runs measuring the unadapted baseline — return false, and
// applications must then behave bit-identically to their pre-regime code.
func (e *Env) Adaptive() bool { return e.rt.adaptive }

// ClusterDown reports whether cluster c is churned out of the wide-area
// network at the current virtual time. Always false without a regime. The
// answer is a pure function of (regime, cluster, virtual time), identical
// on every rank that asks at the same instant — safe ground for collective
// adaptation decisions.
func (e *Env) ClusterDown(c int) bool {
	return e.rt.regime != nil && e.rt.regime.ClusterDown(c, e.p.Now())
}

// RegimeHasChurn reports whether the active regime includes whole-cluster
// churn. Adaptive applications use it to skip churn bookkeeping entirely
// under churn-free regimes.
func (e *Env) RegimeHasChurn() bool {
	return e.rt.regime != nil && e.rt.regime.HasChurn()
}

// Compute charges d of virtual computation time.
func (e *Env) Compute(d sim.Time) {
	if tr := e.rt.tracer; tr != nil && d > 0 {
		start := e.p.Now()
		e.p.Compute(d)
		tr.RecordSpan(trace.Span{Rank: e.rank, Start: start, End: e.p.Now()})
		return
	}
	e.p.Compute(d)
}

// ComputeUnits charges units*costPerUnit of virtual computation, a
// convenience for the applications' cost models.
func (e *Env) ComputeUnits(units int64, costPerUnit sim.Time) {
	e.Compute(sim.Time(units) * costPerUnit)
}

// Rand returns this rank's deterministic random stream. The stream is
// created on first use: seeding a math/rand source is surprisingly
// expensive (the Mitchell-Moore generator warms a 607-entry table), and
// most applications never draw from it.
func (e *Env) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.rt.seed + int64(e.rank)*7919))
	}
	return e.rng
}

// Send asynchronously sends data to rank dst; the message occupies bytes of
// simulated wire size. Send never blocks the caller beyond the modelled
// per-message software overhead.
func (e *Env) Send(dst int, tag Tag, data any, bytes int64) {
	if dst < 0 || dst >= e.Size() {
		panic(fmt.Sprintf("par: send to invalid rank %d", dst))
	}
	e.sends++
	m := Msg{From: e.rank, Tag: tag, Data: data, Bytes: bytes}
	if e.rt.rec != nil {
		// Stamp the message with its global send index so the receive hooks
		// can name it. The network observer fires synchronously inside the
		// send below, exactly once per Env.Send (the recorder refuses runs
		// where that would not hold), so this counter stays in lockstep with
		// the recorder's RecordMessage stream.
		m.seq = e.rt.recSeq + 1
		e.rt.recSeq++
		// The network observer reports only wire-level fields; hand the
		// recorder the application tag ahead of the RecordMessage it will
		// receive synchronously inside the send below.
		e.rt.rec.RecordSendTag(int64(tag))
	}
	if e.rt.rel != nil && !e.rt.topo.SameCluster(e.rank, dst) {
		// Wide-area traffic under fault injection goes through the reliable
		// channel; relSend may block while the go-back-N window is full.
		e.relSend(dst, m, bytes)
		e.p.Compute(e.rt.net.Params().SendOverhead)
		return
	}
	// Direct path: stage the envelope in the run's pool and let the
	// network schedule a handler event — no per-message closure, so the
	// steady-state send→deliver→receive cycle performs no heap allocation.
	dmb := &e.rt.envs[dst].mb
	e.rt.net.SendHandle(e.rank, dst, bytes, network.ClassData, e.rt, e.rt.stage(dmb, m))
	// The sender itself is occupied for the software send overhead.
	e.p.Compute(e.rt.net.Params().SendOverhead)
}

// recorded reports a consumed message and the receive pattern that matched
// it to the attached op-level recorder, if any. The no-recorder path is a
// single nil check.
func (e *Env) recorded(m Msg, from int, tag Tag, poll bool) Msg {
	if e.rt.rec != nil && m.seq > 0 {
		e.rt.rec.RecordRecv(e.rank, m.seq-1, from, int64(tag), poll)
	}
	return m
}

// Recv blocks until a message with the given tag arrives (from anyone) and
// returns it.
func (e *Env) Recv(tag Tag) Msg {
	return e.recorded(e.mb.recv(e.p, AnySender, tag), AnySender, tag, false)
}

// RecvFrom blocks until a message with the given tag arrives from rank from.
func (e *Env) RecvFrom(from int, tag Tag) Msg {
	return e.recorded(e.mb.recv(e.p, from, tag), from, tag, false)
}

// TryRecv returns a queued matching message without blocking.
func (e *Env) TryRecv(from int, tag Tag) (Msg, bool) {
	m, ok := e.mb.take(from, tag)
	if ok {
		m = e.recorded(m, from, tag, true)
	}
	return m, ok
}

// Pending reports the number of undelivered messages in this rank's mailbox.
func (e *Env) Pending() int { return e.mb.pending() }

// MessagesSent returns how many messages this rank has sent.
func (e *Env) MessagesSent() int64 { return e.sends }

// replyTag allocates a unique tag for an RPC reply. Reply tags are negative
// and even, so they can never collide with application tags (small
// non-negative ints) or AnyTag.
func (e *Env) replyTag() Tag {
	e.nextReplyTag -= 2
	return e.nextReplyTag
}

// Call performs a blocking RPC: it sends data to dst with the given tag and
// waits for the reply. The server must answer with Reply. reqBytes and the
// reply's bytes are charged to the network separately.
func (e *Env) Call(dst int, tag Tag, data any, reqBytes int64) Msg {
	rt := e.replyTag()
	e.Send(dst, tag, Request{ReplyTo: e.rank, ReplyTag: rt, Data: data}, reqBytes)
	return e.RecvFrom(dst, rt)
}

// Request is the envelope Call sends; servers receive it as the message's
// Data and answer with Reply.
type Request struct {
	ReplyTo  int
	ReplyTag Tag
	Data     any
}

// Reply answers an RPC request previously received by this rank.
func (e *Env) Reply(req Request, data any, bytes int64) {
	e.Send(req.ReplyTo, req.ReplyTag, data, bytes)
}
