package wirebench

import (
	"github.com/bamboo-bft/bamboo/internal/types"
)

// Fixture is one benchmark workload: a named message representative of
// hot-path traffic.
type Fixture struct {
	Name string
	Msg  any
}

// sigSize matches ed25519 signature length — the scheme the paper's
// evaluation (and this repo's crypto layer) uses on the hot path.
const sigSize = 64

// benchQC builds a certificate as a 4-replica deployment produces it:
// quorum of 3 signers with ed25519-sized signatures.
func benchQC(view types.View, id types.Hash) *types.QC {
	qc := &types.QC{View: view, BlockID: id}
	for i := 0; i < 3; i++ {
		qc.Signers = append(qc.Signers, types.NodeID(i+1))
		sig := make([]byte, sigSize)
		for j := range sig {
			sig[j] = byte(i + j)
		}
		qc.Sigs = append(qc.Sigs, sig)
	}
	return qc
}

// benchTxs builds n deterministic transactions with cmd-byte commands.
func benchTxs(n, cmd int) []types.Transaction {
	txs := make([]types.Transaction, n)
	for i := range txs {
		command := make([]byte, cmd)
		for j := range command {
			command[j] = byte(i ^ j)
		}
		txs[i] = types.Transaction{
			ID:             types.TxID{Client: uint64(i%16 + 1), Seq: uint64(i)},
			Command:        command,
			SubmitUnixNano: int64(1_700_000_000_000_000_000 + i),
		}
	}
	return txs
}

// Fixtures returns the hot-path message mix the wire benchmarks
// measure: the paper's default block (400 transactions of 128-byte
// payload) and the vote that certifies it. Together these are the
// bytes a replica actually moves per committed block.
func Fixtures() []Fixture {
	const blockSize = 400
	txs := benchTxs(blockSize, 128)
	full := &types.Block{
		View:     42,
		Proposer: 2,
		Parent:   types.Hash{0xAB},
		QC:       benchQC(41, types.Hash{0xAB}),
		Payload:  txs,
		Sig:      make([]byte, sigSize),
	}
	return []Fixture{
		{"proposal-400", types.ProposalMsg{Block: full}},
		{"vote", types.VoteMsg{Vote: &types.Vote{
			View: 42, BlockID: types.Hash{0xEF}, Voter: 3, Sig: make([]byte, sigSize),
		}}},
	}
}
