package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/bamboo-bft/bamboo/internal/codec"
	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/crypto"
	"github.com/bamboo-bft/bamboo/internal/forest"
	"github.com/bamboo-bft/bamboo/internal/kvstore"
	"github.com/bamboo-bft/bamboo/internal/ledger"
	"github.com/bamboo-bft/bamboo/internal/mempool"
	"github.com/bamboo-bft/bamboo/internal/protocol"
	"github.com/bamboo-bft/bamboo/internal/quorum"
	"github.com/bamboo-bft/bamboo/internal/safety"
	"github.com/bamboo-bft/bamboo/internal/trace"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/wal"
)

// chain is the committed chain of the steady window, read back from
// the observer's ledger: base is the block just below the window.
type chain struct {
	cfg    config.Config
	base   *types.Block
	from   uint64
	blocks []*types.Block
}

// readChain reads heights [from-1, to] of a ledger file.
func readChain(cfg config.Config, path string, from, to uint64) (*chain, error) {
	c := &chain{cfg: cfg, from: from}
	err := ledger.Replay(path, func(b *types.Block, h uint64) error {
		switch {
		case h == from-1:
			c.base = b
		case h >= from && h <= to:
			c.blocks = append(c.blocks, b)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("read ledger: %w", err)
	}
	if c.base == nil || len(c.blocks) == 0 {
		return nil, fmt.Errorf("ledger holds no blocks in [%d, %d]", from, to)
	}
	return c, nil
}

// stampsPerBlock is how many lifecycle stamps a replica records for a
// block it receives, votes on, commits and executes.
const stampsPerBlock = 6

// replay drives the chain through each layer's public functions, one
// span per layer call and block, and returns the per-layer costs
// derived from the spans' self times. dir holds the replay's own
// ledger and WAL files.
func (c *chain) replay(rec *recorder, dir string, stores bool) (map[string]float64, error) {
	cfg := c.cfg
	scheme, err := crypto.NewScheme(cfg.CryptoScheme, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	factory, err := protocol.Factory(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	q := cfg.Quorum()

	// Votes are signed before the replay so that quorum collection is
	// timed alone.
	votes := make([][]*types.Vote, len(c.blocks))
	for i, b := range c.blocks {
		digest := types.SigningDigest(b.View, b.ID())
		for v := 1; v <= q; v++ {
			sig, err := scheme.Sign(types.NodeID(v), digest)
			if err != nil {
				return nil, err
			}
			votes[i] = append(votes[i], &types.Vote{View: b.View, BlockID: b.ID(), Voter: types.NodeID(v), Sig: sig})
		}
	}

	f := forest.New(cfg.KeepWindow())
	f.ResetTo(c.base, c.blocks[0].QC, c.from-1)
	rules := factory(safety.Env{Forest: f, Self: types.NodeID(cfg.N), N: cfg.N})
	pool := mempool.New(1 << 20)
	store := kvstore.New()
	tracer := trace.New(types.NodeID(cfg.N), 0, 0)
	ledgerPath := filepath.Join(dir, "replay.ledger")
	led, err := ledger.OpenBuffered(ledgerPath)
	if err != nil {
		return nil, err
	}
	walLog, err := wal.OpenNoSync(filepath.Join(dir, "replay.wal"))
	if err != nil {
		led.Close()
		return nil, err
	}
	defer walLog.Close()

	var (
		frames     bytes.Buffer
		frameBytes int
		txs        int
		commits    int
		qcs        int
		layerErrs  int
	)
	enc := codec.NewEncoder(&frames)
	check := func(err error) {
		if err != nil {
			layerErrs++
		}
	}
	for i, b := range c.blocks {
		height := c.from + uint64(i)
		txs += len(b.Payload)
		blk := rec.begin("replay.block", 0)
		rec.timed("codec.encode", blk, func() {
			n, err := enc.Encode(codec.Envelope{From: b.Proposer, Msg: types.ProposalMsg{Block: b}})
			check(err)
			check(enc.Flush())
			frameBytes += n
		})
		digest := types.SigningDigest(b.View, b.ID())
		var sig []byte
		rec.timed("crypto.sign", blk, func() {
			sig, err = scheme.Sign(b.Proposer, digest)
			check(err)
		})
		rec.timed("crypto.verify", blk, func() { check(scheme.Verify(b.Proposer, digest, sig)) })
		if b.QC != nil && !b.QC.IsGenesis() {
			qcs++
			rec.timed("crypto.verify_qc", blk, func() { check(crypto.VerifyQC(scheme, b.QC, q)) })
		}
		rec.timed("quorum.add", blk, func() {
			vs := quorum.NewVotes(q)
			for _, v := range votes[i] {
				vs.Add(v)
			}
		})
		rec.timed("mempool.add", blk, func() {
			for _, tx := range b.Payload {
				check(pool.Add(tx))
			}
		})
		rec.timed("mempool.batch", blk, func() { pool.Batch(cfg.BlockSize) })
		rec.timed("forest.add", blk, func() {
			_, err := f.Add(b)
			check(err)
			if b.QC != nil {
				f.Certify(b.QC)
			}
		})
		var target *types.Block
		rec.timed("safety.rules", blk, func() {
			rules.VoteRule(b, nil)
			rules.UpdateState(b.QC)
			target = rules.CommitRule(b.QC)
		})
		if target != nil {
			commits++
			rec.timed("forest.commit", blk, func() {
				_, err := f.Commit(target.ID())
				check(err)
			})
		}
		if stores {
			rec.timed("kvstore.apply", blk, func() { store.Apply(b.Payload) })
		}
		// The replay ledger starts empty, so it numbers the window's
		// blocks from 1.
		rec.timed("ledger.append", blk, func() { check(led.Append(b, uint64(i+1))) })
		rec.timed("wal.append", blk, func() {
			check(walLog.Append(wal.Record{CurView: b.View, LastVoted: b.View, Preferred: b.QC.View, HighQC: b.QC}))
		})
		rec.timed("trace.stamp", blk, func() {
			h := b.ID()
			tracer.OnReceived(h, b.View, b.Proposer, len(b.Payload))
			tracer.OnVerified(h)
			tracer.OnVoted(h)
			tracer.OnQCFormed(h)
			tracer.OnCommitted(h, height, len(b.Payload))
			tracer.OnExecuted(h)
		})
		rec.end(blk)
	}
	if err := led.Close(); err != nil {
		return nil, err
	}
	dec := codec.NewDecoder(bytes.NewReader(frames.Bytes()))
	for range c.blocks {
		rec.timed("codec.decode", 0, func() {
			_, err := dec.Decode()
			check(err)
		})
	}
	rec.timed("ledger.read", 0, func() {
		check(ledger.Replay(ledgerPath, func(*types.Block, uint64) error { return nil }))
	})
	st, err := os.Stat(ledgerPath)
	if err != nil {
		return nil, err
	}
	if layerErrs > 0 {
		return nil, fmt.Errorf("replay: %d layer calls failed", layerErrs)
	}

	self := selfTimes(rec.spans)
	blocks := float64(len(c.blocks))
	us := func(name string, per float64) float64 {
		if per == 0 {
			return 0
		}
		return float64(self[name]) / float64(time.Microsecond) / per
	}
	return map[string]float64{
		"codec.encode_us_per_block":  us("codec.encode", blocks),
		"codec.decode_us_per_block":  us("codec.decode", blocks),
		"codec.bytes_per_block":      float64(frameBytes) / blocks,
		"crypto.sign_us":             us("crypto.sign", blocks),
		"crypto.verify_us":           us("crypto.verify", blocks),
		"crypto.verify_qc_us":        us("crypto.verify_qc", float64(qcs)),
		"quorum.add_us_per_vote":     us("quorum.add", blocks*float64(q)),
		"safety.rules_us_per_block":  us("safety.rules", blocks),
		"forest.add_us_per_block":    us("forest.add", blocks),
		"forest.commit_us_per_block": us("forest.commit", float64(commits)),
		"mempool.add_us_per_tx":      us("mempool.add", float64(txs)),
		"mempool.batch_us_per_block": us("mempool.batch", blocks),
		"kvstore.apply_us_per_tx":    us("kvstore.apply", float64(txs)),
		"ledger.append_us_per_block": us("ledger.append", blocks),
		"ledger.bytes_per_block":     float64(st.Size()) / blocks,
		"ledger.read_us_per_block":   us("ledger.read", blocks),
		"wal.append_us":              us("wal.append", blocks),
		"trace.stamp_ns":             us("trace.stamp", blocks*stampsPerBlock) * 1e3,
	}, nil
}
