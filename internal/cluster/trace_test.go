package cluster

import (
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/config"
)

// TestFollowerSpansCoverVerifyStage: on the default hot path a
// follower opens a span for every proposal it receives from another
// replica, stamped received → verified → voted in order, so the verify
// stage measures real follower work instead of the proposer's own
// zero-length stamps.
func TestFollowerSpansCoverVerifyStage(t *testing.T) {
	c := startCluster(t, testConfig(config.ProtocolHotStuff), Options{})
	drive(t, c, 8, time.Second)

	follower := c.Node(c.Observer())
	var foreign int
	for _, sp := range follower.Trace().Snapshot().Spans {
		if sp.Proposer == follower.ID() || sp.Voted == 0 {
			continue
		}
		foreign++
		if sp.Received == 0 || sp.Received > sp.Verified || sp.Verified > sp.Voted {
			t.Fatalf("span %s out of order: received %d, verified %d, voted %d",
				sp.Block, sp.Received, sp.Verified, sp.Voted)
		}
	}
	if foreign == 0 {
		t.Fatal("follower holds no voted span proposed by another replica")
	}

	chain := c.AggregateChain()
	verify := chain.StageSummaries()["verify"]
	if verify.Count == 0 || verify.Mean <= 0 {
		t.Fatalf("merged verify stage empty: %+v", verify)
	}
}
