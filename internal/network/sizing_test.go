package network

import (
	"bytes"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/codec"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// wireFixtures returns one representative value per registered wire
// tag. The switch charges bandwidth for these via messageSize; the TCP
// transport counts the bytes its encoder actually frames. The sizing
// tests pin the two to each other.
func wireFixtures() []any {
	qc := &types.QC{
		View:    7,
		BlockID: types.Hash{0xAA},
		Signers: []types.NodeID{1, 2, 3},
		Sigs:    [][]byte{{1}, {2, 2}, {3, 3, 3}},
	}
	block := &types.Block{
		View:     8,
		Proposer: 2,
		Parent:   types.Hash{0xBB},
		QC:       qc,
		Payload: []types.Transaction{
			{ID: types.TxID{Client: 4, Seq: 1}, Command: []byte("set x 1"), SubmitUnixNano: 99},
		},
		Digest: types.Hash{0xCC},
		Sig:    []byte{9, 9},
	}
	return []any{
		types.ProposalMsg{Block: block, TC: &types.TC{View: 6, Signers: []types.NodeID{1, 2}, Sigs: [][]byte{{1}, {2}}, HighQC: qc}},
		types.VoteMsg{Vote: &types.Vote{View: 8, BlockID: types.Hash{0xDD}, Voter: 3, Sig: []byte{5}}},
		types.TimeoutMsg{Timeout: &types.Timeout{View: 8, Voter: 1, HighQC: qc, Sig: []byte{6}}},
		types.TCMsg{TC: &types.TC{View: 8, Signers: []types.NodeID{1, 2, 3}, Sigs: [][]byte{{1}, {2}, {3}}, HighQC: qc}},
		types.FetchMsg{BlockID: types.Hash{0xEE}},
		types.SyncRequestMsg{From: 10, To: 20},
		types.SyncResponseMsg{From: 10, Blocks: []*types.Block{block}, Head: 12, Floor: 3},
		types.SnapshotRequestMsg{Height: 100, Chunk: 2},
		types.SnapshotManifestMsg{Height: 100, Block: block, QC: qc, StateDigest: types.Hash{0x11}, TotalSize: 4096, ChunkSize: 1024, ChunkDigests: []types.Hash{{0x21}, {0x22}}},
		types.SnapshotChunkMsg{Height: 100, Chunk: 2, Data: []byte("chunk-bytes")},
		types.RequestMsg{Tx: types.Transaction{ID: types.TxID{Client: 5, Seq: 2}, Command: []byte("get y"), SubmitUnixNano: 123}},
		types.ReplyMsg{TxID: types.TxID{Client: 5, Seq: 2}, View: 8, BlockID: types.Hash{0xFF}, Rejected: false},
		types.QueryMsg{Height: 12},
		types.QueryReplyMsg{CommittedHeight: 12, CommittedView: 8, BlockHash: types.Hash{0x31}},
		types.SlowMsg{DelayMeanNanos: 1000, DelayStdNanos: 100},
	}
}

// TestMessageSizeMatchesWire: the size the switch charges for every
// registered message type equals the frame the TCP transport puts on
// the wire, byte for byte. Estimator drift between the two backends is
// impossible by construction — both read codec.EncodedSize — but this
// pins EncodedSize itself to the encoder's actual output, through the
// switch's entry point.
func TestMessageSizeMatchesWire(t *testing.T) {
	seen := make(map[types.WireTag]bool)
	for _, msg := range wireFixtures() {
		tag, ok := types.WireTagOf(msg)
		if !ok {
			t.Fatalf("%T not in wire registry", msg)
		}
		if seen[tag] {
			t.Fatalf("duplicate fixture for tag %d", tag)
		}
		seen[tag] = true

		charged := messageSize(msg)
		exact, ok := codec.EncodedSize(msg)
		if !ok {
			t.Fatalf("%T has no codec size", msg)
		}
		if charged != exact {
			t.Fatalf("%T: switch charges %d, codec sizes %d", msg, charged, exact)
		}
		var buf bytes.Buffer
		enc := codec.NewEncoder(&buf)
		n, err := enc.Encode(codec.Envelope{From: 1, Msg: msg})
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		if n != charged || buf.Len() != charged {
			t.Fatalf("%T: charged %d, framed %d (reported %d)", msg, charged, buf.Len(), n)
		}
	}
	for tag := types.WireTag(1); tag <= types.TagSlow; tag++ {
		if !seen[tag] && tag != types.TagRetiredPayloadBatch {
			t.Fatalf("no sizing fixture for tag %d — new message types must be added here", tag)
		}
	}
}

// TestSwitchChargesExactWireBytes: the in-process switch's byte
// counter, after delivering one of each registered message, equals the
// sum of the frames TCP would have written for the same traffic.
func TestSwitchChargesExactWireBytes(t *testing.T) {
	sw := NewSwitch(nil)
	defer sw.Close()
	a, err := sw.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sw.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	fixtures := wireFixtures()
	var want uint64
	for _, msg := range fixtures {
		n, ok := codec.EncodedSize(msg)
		if !ok {
			t.Fatalf("%T has no codec size", msg)
		}
		want += uint64(n)
		a.Send(2, msg)
	}
	for range fixtures {
		select {
		case <-b.Inbox():
		case <-time.After(5 * time.Second):
			t.Fatal("switch delivery stalled")
		}
	}
	if _, gotBytes, _ := sw.Stats(); gotBytes != want {
		t.Fatalf("switch charged %d bytes, wire frames total %d", gotBytes, want)
	}
}
