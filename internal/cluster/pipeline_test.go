package cluster

import (
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/protocol"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// pipelineConfig returns testConfig with the staged-commit stage on:
// committed blocks execute on the ordered commit-apply goroutine.
func pipelineConfig(proto string) config.Config {
	cfg := testConfig(proto)
	cfg.AsyncCommit = true
	return cfg
}

// TestPipelinedHappyPathAllProtocols mirrors the happy path for every
// protocol with staged commit on: commits flow and replicas agree.
func TestPipelinedHappyPathAllProtocols(t *testing.T) {
	for _, proto := range protocol.Names() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			c := startCluster(t, pipelineConfig(proto), Options{})
			cl, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			cl.RunClosedLoop(8, 2*time.Second)
			deadline := time.Now().Add(10 * time.Second)
			for cl.Committed() < 200 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			cl.Stop()
			if got := cl.Committed(); got < 200 {
				t.Fatalf("only %d transactions committed", got)
			}
			if err := c.ConsistencyCheck(); err != nil {
				t.Fatal(err)
			}
			if v := c.Violations(); v != 0 {
				t.Fatalf("%d safety violations", v)
			}
		})
	}
}

// TestPipelinedForkingAttack re-runs the forking adversary with staged
// commit on: the attack still degrades CGR (the apply stage must not
// mask protocol behaviour) and safety still holds.
func TestPipelinedForkingAttack(t *testing.T) {
	cfg := pipelineConfig(config.ProtocolHotStuff)
	cfg.ByzNo = 1
	cfg.Strategy = config.StrategyForking
	c := startCluster(t, cfg, Options{})
	drive(t, c, 8, 2*time.Second)
	stats := c.AggregateChain()
	if stats.BlocksCommitted == 0 {
		t.Fatal("attack halted the chain entirely")
	}
	if stats.CGR >= 0.999 {
		t.Fatalf("CGR = %.3f; forking attack had no effect under staged commit", stats.CGR)
	}
	if err := c.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
	if v := c.Violations(); v != 0 {
		t.Fatalf("%d safety violations under forking attack", v)
	}
}

// TestPipelinedSilenceAttack re-runs the silence adversary with staged
// commit on.
func TestPipelinedSilenceAttack(t *testing.T) {
	cfg := pipelineConfig(config.ProtocolHotStuff)
	cfg.ByzNo = 1
	cfg.Strategy = config.StrategySilence
	cfg.Timeout = 60 * time.Millisecond
	c := startCluster(t, cfg, Options{})
	drive(t, c, 8, 2500*time.Millisecond)
	stats := c.AggregateChain()
	if stats.BlocksCommitted < 5 {
		t.Fatalf("only %d blocks committed under silence attack", stats.BlocksCommitted)
	}
	if err := c.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
	if v := c.Violations(); v != 0 {
		t.Fatalf("%d safety violations under silence attack", v)
	}
}

// TestPipelinedEquivocationSafety re-runs the equivocating leader with
// staged commit on: quorum intersection still starves one twin.
func TestPipelinedEquivocationSafety(t *testing.T) {
	cfg := pipelineConfig(config.ProtocolHotStuff)
	cfg.ByzNo = 1
	cfg.Strategy = config.StrategyEquivocate
	c := startCluster(t, cfg, Options{})
	drive(t, c, 8, 2*time.Second)
	if err := c.ConsistencyCheck(); err != nil {
		t.Fatal(err)
	}
	if v := c.Violations(); v != 0 {
		t.Fatalf("%d safety violations under equivocation", v)
	}
}

// TestStagedCommitDrainsOnStop: with the commit-apply stage on, every
// block committed before Stop finishes executing before Stop returns,
// and each replica's kvstore matches its own committed transaction
// count exactly.
func TestStagedCommitDrainsOnStop(t *testing.T) {
	cfg := pipelineConfig(config.ProtocolHotStuff)
	c := startCluster(t, cfg, Options{WithStores: true})
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if !cl.SubmitAndWait(5 * time.Second) {
			t.Fatalf("transaction %d did not commit", i)
		}
	}
	cl.Stop()
	c.Stop() // drains the apply queues (idempotent with the cleanup)
	for i := 1; i <= cfg.N; i++ {
		id := types.NodeID(i)
		committed := c.Node(id).Tracker().Snapshot().TxCommitted
		applied := c.Store(id).Applied()
		if applied != committed {
			t.Fatalf("replica %s: applied %d of %d committed transactions after Stop",
				id, applied, committed)
		}
	}
	if p := c.AggregatePipeline(); p.BlocksApplied == 0 {
		t.Fatal("commit-apply stage never ran")
	}
}

// TestPipelinedTinyApplyQueueBackpressure: with a tiny apply queue the
// commit stage exerts backpressure rather than growing a backlog;
// consensus keeps committing and the backlog still drains at Stop.
func TestPipelinedTinyApplyQueueBackpressure(t *testing.T) {
	cfg := pipelineConfig(config.ProtocolHotStuff)
	cfg.ApplyQueue = 2
	c := startCluster(t, cfg, Options{WithStores: true})
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	cl.RunClosedLoop(16, 2*time.Second)
	time.Sleep(1500 * time.Millisecond)
	cl.Stop()
	if h := c.Node(c.Observer()).Status().CommittedHeight; h < 5 {
		t.Fatalf("consensus stalled: height %d", h)
	}
	c.Stop()
	for i := 1; i <= cfg.N; i++ {
		id := types.NodeID(i)
		if got, want := c.Store(id).Applied(), c.Node(id).Tracker().Snapshot().TxCommitted; got != want {
			t.Fatalf("replica %s: applied %d, committed %d", id, got, want)
		}
	}
}
