package core

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/crypto"
	"github.com/bamboo-bft/bamboo/internal/network"
	"github.com/bamboo-bft/bamboo/internal/protocol/hotstuff"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// TestPipelinedEngineSurvivesMalformedMessages floods a cluster
// running the staged commit-apply stage with the same hostile garbage
// as the synchronous test: replicas must keep committing and
// executing blocks without panics, stalls, or safety violations.
func TestPipelinedEngineSurvivesMalformedMessages(t *testing.T) {
	cfg := testCfg()
	cfg.AsyncCommit = true
	sw := network.NewSwitch(nil)
	scheme, err := crypto.NewScheme(cfg.CryptoScheme, cfg.N, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	// The commit-apply stage only runs behind an Execute hook; count
	// what replica 1 executes.
	var executed atomic.Uint64
	nodes := make([]*Node, 0, cfg.N)
	for i := 1; i <= cfg.N; i++ {
		id := types.NodeID(i)
		ep, err := sw.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{OnViolation: func(err error) { t.Errorf("violation: %v", err) }}
		if id == 1 {
			opts.Execute = func(txs []types.Transaction) { executed.Add(uint64(len(txs))) }
		}
		nodes = append(nodes, NewNode(id, cfg, hotstuff.New, ep, scheme, opts))
	}
	for _, n := range nodes {
		n.Start()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	raw, err := sw.JoinClient(666)
	if err != nil {
		t.Fatal(err)
	}
	nodes[0].Submit(types.Transaction{ID: types.TxID{Client: 1, Seq: 1}})
	waitProgress(t, nodes, 0)

	hostile := []any{
		types.ProposalMsg{},
		types.ProposalMsg{Block: &types.Block{}},
		types.VoteMsg{},
		types.TimeoutMsg{},
		types.TCMsg{},
		types.FetchMsg{BlockID: types.Hash{0xde, 0xad}},
		"junk",
	}
	forged := []any{
		types.ProposalMsg{Block: &types.Block{
			View: 5, Proposer: 1, QC: types.GenesisQC(), Sig: []byte("forged"),
		}},
		types.ProposalMsg{Block: &types.Block{
			View: 6, Proposer: 2, QC: types.GenesisQC(), Sig: []byte("x"),
			Digest: types.Hash{0xaa},
		}},
		types.VoteMsg{Vote: &types.Vote{View: 2, Voter: 2, Sig: []byte("forged")}},
		types.VoteMsg{Vote: &types.Vote{View: 1 << 40, Voter: 3, Sig: []byte("future")}},
		types.TimeoutMsg{Timeout: &types.Timeout{View: 1 << 40, Voter: 3, Sig: []byte("future")}},
		types.TCMsg{TC: &types.TC{View: 1 << 40, Signers: []types.NodeID{1, 2, 3},
			Sigs: [][]byte{{1}, {2}, {3}}}},
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		for _, msg := range hostile {
			raw.Send(types.NodeID(rng.Intn(4)+1), msg)
		}
		for _, msg := range forged {
			raw.Send(types.NodeID(rng.Intn(4)+1), msg)
		}
	}
	before := nodes[len(nodes)-1].Status().CommittedHeight
	nodes[0].Submit(types.Transaction{ID: types.TxID{Client: 1, Seq: 2}})
	waitProgress(t, nodes, before)
	for _, n := range nodes {
		if n.Violations() != 0 {
			t.Fatalf("node %s reported safety violations under hostile traffic", n.ID())
		}
	}
	// Both transactions must still come out of the commit-apply
	// stage, which runs behind the event loop.
	deadline := time.Now().Add(10 * time.Second)
	for executed.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("commit-apply stage executed %d of 2 transactions under hostile traffic",
				executed.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if nodes[0].Pipeline().Snapshot().BlocksApplied == 0 {
		t.Fatal("commit-apply stage never ran")
	}
}

// TestTamperedPayloadDigestRejected: the signed block ID covers the
// payload only through its digest, so a proposal whose inline payload
// does not hash to the carried digest must be dropped — otherwise a
// Byzantine proposer could commit one block ID with divergent
// payloads on different replicas. Runs against a single isolated
// replica: with no quorum the view is pinned and nothing commits, so
// the forest neither prunes forks nor compacts — attachment is
// directly and stably observable through the fetch path.
func TestTamperedPayloadDigestRejected(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		cfg := testCfg()
		sw := network.NewSwitch(nil)
		// Only replica 4 runs; peers 1-3 exist solely as signing
		// identities (HMAC's shared key stands in for a Byzantine
		// proposer forging their votes).
		ep, err := sw.Join(4)
		if err != nil {
			t.Fatal(err)
		}
		scheme, err := crypto.NewScheme(cfg.CryptoScheme, cfg.N, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		node := NewNode(4, cfg, hotstuff.New, ep, scheme, Options{})
		node.Start()
		t.Cleanup(node.Stop)
		raw, err := sw.JoinClient(888)
		if err != nil {
			t.Fatal(err)
		}

		payload := []types.Transaction{{ID: types.TxID{Client: 50, Seq: 1}, Command: []byte("real")}}
		otherPayload := []types.Transaction{{ID: types.TxID{Client: 50, Seq: 2}, Command: []byte("fake")}}
		mk := func(p []types.Transaction, digest types.Hash) *types.Block {
			// View 1's leader is replica 1 under round robin.
			b := &types.Block{
				View:     1,
				Proposer: 1,
				Parent:   types.Genesis().ID(),
				QC:       types.GenesisQC(),
				Payload:  p,
				Digest:   digest,
			}
			sig, err := scheme.Sign(1, types.SigningDigest(b.View, b.ID()))
			if err != nil {
				t.Fatal(err)
			}
			b.Sig = sig
			return b
		}
		// Tampered: inline payload does not hash to the carried
		// digest. Honest control: digest computed from payload.
		tampered := mk(payload, types.DigestPayload(otherPayload))
		honest := mk(payload, types.Hash{})
		raw.Send(4, types.ProposalMsg{Block: tampered})
		raw.Send(4, types.ProposalMsg{Block: honest})

		// Observe through the fetch path: an attached block is
		// servable; a rejected one is not.
		fetchable := func(id types.Hash, wait time.Duration) bool {
			deadline := time.After(wait)
			raw.Send(4, types.FetchMsg{BlockID: id})
			for {
				select {
				case env := <-raw.Inbox():
					if pm, ok := env.Msg.(types.ProposalMsg); ok && pm.Block != nil && pm.Block.ID() == id {
						return true
					}
				case <-deadline:
					return false
				}
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for !fetchable(honest.ID(), 100*time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("control block with a consistent digest was not attached")
			}
		}
		if fetchable(tampered.ID(), 300*time.Millisecond) {
			t.Fatal("proposal with a tampered payload digest was attached")
		}
	})
}

// TestStagedCommitAppliesInOrder: with AsyncCommit on, the Execute
// hook observes every committed payload exactly once, in commit
// order, and Stop drains the backlog.
func TestStagedCommitAppliesInOrder(t *testing.T) {
	cfg := testCfg()
	cfg.AsyncCommit = true
	sw := network.NewSwitch(nil)
	transports := make(map[types.NodeID]network.Transport, cfg.N)
	for i := 1; i <= cfg.N; i++ {
		ep, err := sw.Join(types.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		transports[types.NodeID(i)] = ep
	}
	scheme, err := crypto.NewScheme(cfg.CryptoScheme, cfg.N, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var applied atomic.Uint64
	var lastSeq uint64
	nodes := make([]*Node, 0, cfg.N)
	for i := 1; i <= cfg.N; i++ {
		id := types.NodeID(i)
		opts := Options{}
		if id == 1 {
			opts.Execute = func(txs []types.Transaction) {
				for i := range txs {
					// Single client submitting sequential IDs: commit
					// order must preserve submission order.
					if txs[i].ID.Seq <= lastSeq {
						t.Errorf("out-of-order apply: seq %d after %d", txs[i].ID.Seq, lastSeq)
					}
					lastSeq = txs[i].ID.Seq
					applied.Add(1)
				}
			}
		}
		nodes = append(nodes, NewNode(id, cfg, hotstuff.New, transports[id], scheme, opts))
	}
	for _, n := range nodes {
		n.Start()
	}
	const total = 60
	for i := 1; i <= total; i++ {
		nodes[0].Submit(types.Transaction{ID: types.TxID{Client: 7, Seq: uint64(i)}})
	}
	deadline := time.Now().Add(10 * time.Second)
	for nodes[0].Tracker().Snapshot().TxCommitted < total {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d transactions committed",
				nodes[0].Tracker().Snapshot().TxCommitted, total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	committed := nodes[0].Tracker().Snapshot().TxCommitted
	for _, n := range nodes {
		n.Stop()
	}
	if got := applied.Load(); got != committed {
		t.Fatalf("applied %d of %d committed transactions after Stop", got, committed)
	}
	if nodes[0].Pipeline().Snapshot().BlocksApplied == 0 {
		t.Fatal("commit-apply stage never ran")
	}
}
