package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/workload"
)

// pacerTick is the batching period of Client.RunOpenLoop: every tick
// the pacer draws a batch of arrivals and calls Next once per
// transaction, back to back.
const pacerTick = 2 * time.Millisecond

// batchGap separates two batches: calls closer than this belong to
// the same batch.
const batchGap = pacerTick / 4

// pacedGen wraps a client's workload generator. It counts the
// transactions the client attempts and records how late each one was
// produced against the pacer's schedule, where every batch is due one
// tick after the previous batch began. Lateness shows the generator
// could not keep its rate; a tick that drew no arrivals reads as up to
// one tick of lateness, so low rates read a few milliseconds even on
// schedule.
//
// An open-loop client calls Next from its single pacer goroutine; a
// closed-loop client calls it from every worker, so mu serializes the
// calls. The lateness of a closed loop is recorded but never read.
// The counters are read from the benchmark's goroutine.
type pacedGen struct {
	inner workload.Generator

	attempted atomic.Uint64
	lag       metrics.Latency

	mu         sync.Mutex
	last       time.Time
	batchStart time.Time
	due        time.Time
}

func newPacedGen(inner workload.Generator) *pacedGen {
	return &pacedGen{inner: inner}
}

func (g *pacedGen) Name() string { return g.inner.Name() }

func (g *pacedGen) Next() []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := time.Now()
	if g.last.IsZero() || now.Sub(g.last) > batchGap {
		if !g.batchStart.IsZero() {
			g.due = g.batchStart.Add(pacerTick)
		}
		g.batchStart = now
	}
	g.last = now
	if !g.due.IsZero() {
		late := now.Sub(g.due)
		if late < 0 {
			late = 0
		}
		g.lag.Record(late)
	}
	g.attempted.Add(1)
	return g.inner.Next()
}
