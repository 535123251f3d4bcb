package codec

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/bamboo-bft/bamboo/internal/types"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_frames.txt from the current encoder")

// registryFixtures returns one deterministic, fully-populated message
// per wire tag. Blocks are built fresh per call and their IDs are
// never materialized, so reflect.DeepEqual sees identical lazy-hash
// state on both sides of a round trip.
func registryFixtures() []struct {
	Name string
	Tag  types.WireTag
	Msg  any
} {
	qc := func() *types.QC {
		return &types.QC{
			View:    8,
			BlockID: types.Hash{0xab, 1, 2, 3},
			Signers: []types.NodeID{1, 2, 3},
			Sigs:    [][]byte{{0x11, 0x12}, {0x21}, {0x31, 0x32, 0x33}},
		}
	}
	block := func() *types.Block {
		return &types.Block{
			View:     9,
			Proposer: 2,
			Parent:   types.Hash{0xab, 1, 2, 3},
			QC:       qc(),
			Payload: []types.Transaction{
				{ID: types.TxID{Client: 4, Seq: 2}, Command: []byte("put k v"), SubmitUnixNano: 12345},
				{ID: types.TxID{Client: 4, Seq: 3}, Command: []byte("del k"), SubmitUnixNano: -7},
			},
			Sig: []byte{0xaa, 0xbb},
		}
	}
	tc := func() *types.TC {
		return &types.TC{
			View:    10,
			Signers: []types.NodeID{2, 3, 4},
			Sigs:    [][]byte{{1}, {2}, {3}},
			HighQC:  qc(),
		}
	}
	return []struct {
		Name string
		Tag  types.WireTag
		Msg  any
	}{
		{"proposal", types.TagProposal, types.ProposalMsg{Block: block(), TC: tc()}},
		{"vote", types.TagVote, types.VoteMsg{Vote: &types.Vote{View: 2, BlockID: types.Hash{3}, Voter: 1, Sig: []byte{1, 2, 3}}}},
		{"timeout", types.TagTimeout, types.TimeoutMsg{Timeout: &types.Timeout{View: 2, Voter: 1, HighQC: qc(), Sig: []byte{9}}}},
		{"tc", types.TagTC, types.TCMsg{TC: tc()}},
		{"fetch", types.TagFetch, types.FetchMsg{BlockID: types.Hash{0xfe, 0xfd}}},
		{"sync-request", types.TagSyncRequest, types.SyncRequestMsg{From: 17, To: 80}},
		{"sync-response", types.TagSyncResponse, types.SyncResponseMsg{From: 41, Blocks: []*types.Block{block(), block()}, Head: 99, Floor: 12}},
		{"snapshot-request", types.TagSnapshotRequest, types.SnapshotRequestMsg{Height: 64, Chunk: 3}},
		{"snapshot-manifest", types.TagSnapshotManifest, types.SnapshotManifestMsg{
			Height: 64, Block: block(), QC: qc(), StateDigest: types.Hash{0x5d},
			TotalSize: 1 << 20, ChunkSize: 256 << 10, ChunkDigests: []types.Hash{{1}, {2}, {3}, {4}},
		}},
		{"snapshot-chunk", types.TagSnapshotChunk, types.SnapshotChunkMsg{Height: 64, Chunk: 3, Data: []byte{0xde, 0xad, 0xbe, 0xef}}},
		{"request", types.TagRequest, types.RequestMsg{Tx: types.Transaction{ID: types.TxID{Client: 1, Seq: 2}, Command: []byte("x"), SubmitUnixNano: 99}}},
		{"reply", types.TagReply, types.ReplyMsg{TxID: types.TxID{Client: 1, Seq: 2}, View: 7, BlockID: types.Hash{1}, Rejected: true}},
		{"query", types.TagQuery, types.QueryMsg{Height: 11}},
		{"query-reply", types.TagQueryReply, types.QueryReplyMsg{CommittedHeight: 11, CommittedView: 12, BlockHash: types.Hash{2}}},
		{"slow", types.TagSlow, types.SlowMsg{DelayMeanNanos: 100, DelayStdNanos: -10}},
		// Nil pointers inside messages must travel, not crash: a
		// hostile or buggy peer can always hand the decoder absence.
		{"proposal-nil", types.TagProposal, types.ProposalMsg{}},
		{"vote-nil", types.TagVote, types.VoteMsg{}},
		{"timeout-nil", types.TagTimeout, types.TimeoutMsg{}},
		{"tc-nil", types.TagTC, types.TCMsg{}},
		{"sync-response-empty", types.TagSyncResponse, types.SyncResponseMsg{From: 41, Head: 12, Floor: 13}},
	}
}

// TestRegistryCoversAllTags: every live tag constant has at least one
// fixture, and every fixture's message maps back to its tag — the
// guard that a new message type cannot land without entering the
// round-trip, size, and golden suites.
func TestRegistryCoversAllTags(t *testing.T) {
	seen := map[types.WireTag]bool{}
	for _, f := range registryFixtures() {
		tag, ok := types.WireTagOf(f.Msg)
		if !ok {
			t.Fatalf("%s: message %T has no wire tag", f.Name, f.Msg)
		}
		if tag != f.Tag {
			t.Fatalf("%s: fixture declares tag %d, WireTagOf says %d", f.Name, f.Tag, tag)
		}
		seen[tag] = true
	}
	for tag := types.TagProposal; tag <= types.TagSlow; tag++ {
		if tag == types.TagRetiredPayloadBatch {
			if seen[tag] {
				t.Errorf("retired tag %d is registered again", tag)
			}
			continue
		}
		if !seen[tag] {
			t.Errorf("tag %d has no fixture", tag)
		}
	}
}

// TestRegistryRoundTrip: encode → decode must reproduce every
// registered message exactly (reflect.DeepEqual), with the decoder
// normalizing empty byte fields to nil just like the fixture set.
func TestRegistryRoundTrip(t *testing.T) {
	for _, f := range registryFixtures() {
		var buf bytes.Buffer
		encodeFrame(t, &buf, Envelope{From: 3, Msg: f.Msg})
		env, err := NewDecoder(&buf).Decode()
		if err != nil {
			t.Errorf("%s: decode: %v", f.Name, err)
			continue
		}
		// Compare against a freshly built fixture: decoding must not
		// have mutated the original (blocks cache their IDs lazily).
		want := registryFixtures()[indexOf(t, f.Name)].Msg
		if !reflect.DeepEqual(env.Msg, want) {
			t.Errorf("%s: round trip mangled\n got: %#v\nwant: %#v", f.Name, env.Msg, want)
		}
	}
}

func indexOf(t *testing.T, name string) int {
	t.Helper()
	for i, f := range registryFixtures() {
		if f.Name == name {
			return i
		}
	}
	t.Fatalf("fixture %q missing", name)
	return -1
}

// TestEncodedSizeIsExact: EncodedSize must equal the bytes Encode
// actually produces for every registered message — it is what the
// in-process switch charges against modeled bandwidth, so estimate
// drift would desynchronize the two backends' byte accounting.
func TestEncodedSizeIsExact(t *testing.T) {
	for _, f := range registryFixtures() {
		want, ok := EncodedSize(f.Msg)
		if !ok {
			t.Fatalf("%s: message %T not sized", f.Name, f.Msg)
		}
		var buf bytes.Buffer
		n := encodeFrame(t, &buf, Envelope{From: 1, Msg: f.Msg})
		if n != want || buf.Len() != want {
			t.Errorf("%s: EncodedSize %d, Encode reported %d, stream holds %d", f.Name, want, n, buf.Len())
		}
	}
}

// TestEncodedSizeUnknownType: unregistered values are not sized — the
// network layer falls back to its own heuristics for them.
func TestEncodedSizeUnknownType(t *testing.T) {
	if _, ok := EncodedSize("not a message"); ok {
		t.Fatal("strings must not be sized")
	}
	if _, ok := EncodedSize(struct{ X int }{1}); ok {
		t.Fatal("anonymous structs must not be sized")
	}
}

// TestGoldenFrames pins the wire format: the hex encoding of every
// fixture is committed, so any byte-level change — reordered fields,
// width changes, a renumbered tag — fails this test and forces a
// deliberate WireVersion decision instead of a silent incompatibility.
// Regenerate with `go test ./internal/codec -run TestGoldenFrames -update`.
func TestGoldenFrames(t *testing.T) {
	path := filepath.Join("testdata", "golden_frames.txt")
	var lines []string
	for _, f := range registryFixtures() {
		var buf bytes.Buffer
		encodeFrame(t, &buf, Envelope{From: 3, Msg: f.Msg})
		lines = append(lines, fmt.Sprintf("%s %s", f.Name, hex.EncodeToString(buf.Bytes())))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if got != string(want) {
		for i, line := range lines {
			wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
			if i >= len(wantLines) || line != wantLines[i] {
				t.Errorf("wire bytes changed for fixture %q", strings.SplitN(line, " ", 2)[0])
			}
		}
		t.Fatal("golden frames diverged: bump WireVersion or re-examine the change, then -update")
	}
	// The committed bytes must also still decode to the fixtures —
	// golden coverage of the decoder, not just the encoder.
	for i, line := range strings.Split(strings.TrimRight(string(want), "\n"), "\n") {
		parts := strings.SplitN(line, " ", 2)
		raw, err := hex.DecodeString(parts[1])
		if err != nil {
			t.Fatalf("golden line %d: %v", i, err)
		}
		env, err := NewDecoder(bytes.NewReader(raw)).Decode()
		if err != nil {
			t.Fatalf("golden %s: decode: %v", parts[0], err)
		}
		if !reflect.DeepEqual(env.Msg, registryFixtures()[i].Msg) {
			t.Errorf("golden %s: decoded message diverged from fixture", parts[0])
		}
	}
}

// TestForwardCompatTrailingBytes: within one WireVersion, new fields
// append — an older decoder must ignore trailing body bytes it does
// not understand instead of rejecting the frame.
func TestForwardCompatTrailingBytes(t *testing.T) {
	var buf bytes.Buffer
	encodeFrame(t, &buf, Envelope{From: 1, Msg: types.QueryMsg{Height: 11}})
	frame := buf.Bytes()
	// Splice four extra bytes into the body and patch the length.
	extended := append([]byte(nil), frame...)
	extended = append(extended, 0xCA, 0xFE, 0xBA, 0xBE)
	extended[0] += 4 // payload length, little-endian low byte (no carry at this size)
	env, err := NewDecoder(bytes.NewReader(extended)).Decode()
	if err != nil {
		t.Fatalf("appended fields must not break old decoders: %v", err)
	}
	if q, ok := env.Msg.(types.QueryMsg); !ok || q.Height != 11 {
		t.Fatalf("message mangled: %+v", env)
	}
}

// TestDecoderReusesBufioReader: handing the decoder an existing
// bufio.Reader must not double-buffer (the TCP read path wraps the
// socket once).
func TestDecoderReusesBufioReader(t *testing.T) {
	var buf bytes.Buffer
	encodeFrame(t, &buf, Envelope{From: 1, Msg: types.QueryMsg{Height: 1}})
	br := bufio.NewReader(&buf)
	if _, err := NewDecoder(br).Decode(); err != nil {
		t.Fatal(err)
	}
}
