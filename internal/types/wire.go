package types

// Wire-format registry: the stable numbering that lets a hand-rolled
// binary codec identify message types without gob's per-connection
// type dictionaries. The byte-level encoding lives in internal/codec;
// this file owns only the identity rules, because they must outlive
// any single codec implementation:
//
//   - Tags are never reused. A retired message keeps its number
//     forever (mark it reserved); a new message takes the next free
//     one. Reusing a tag would make two deployments parse each
//     other's frames as the wrong type without any error.
//   - New fields append. Within one WireVersion, decoders ignore
//     trailing bytes they do not understand, so a newer encoder may
//     append fields and still interoperate with an older decoder.
//   - WireVersion bumps only for incompatible re-layouts (field
//     reordering, width changes, removed fields). A decoder rejects
//     frames carrying a version it does not speak.

// WireVersion is the current frame format version, carried in every
// frame header.
const WireVersion = 1

// WireTag identifies a message type on the wire. The zero value is
// invalid, so an all-zero frame never parses as a real message.
type WireTag uint8

// The stable tag assignments. Append only; never renumber.
const (
	TagInvalid          WireTag = 0
	TagProposal         WireTag = 1
	TagVote             WireTag = 2
	TagTimeout          WireTag = 3
	TagTC               WireTag = 4
	TagFetch            WireTag = 5
	TagSyncRequest      WireTag = 6
	TagSyncResponse     WireTag = 7
	TagSnapshotRequest  WireTag = 8
	TagSnapshotManifest WireTag = 9
	TagSnapshotChunk    WireTag = 10
	TagRequest          WireTag = 11
	// TagRetiredPayloadBatch (12) carried the payload-sync batches of
	// the retired digest-proposal data plane. It stays reserved and is
	// never reused; decoders refuse it as an unknown tag.
	TagRetiredPayloadBatch WireTag = 12
	TagReply               WireTag = 13
	TagQuery               WireTag = 14
	TagQueryReply          WireTag = 15
	TagSlow                WireTag = 16
)

// WireTagOf returns the stable tag for a registered wire message, or
// (TagInvalid, false) for anything else. Messages travel as values, so
// only value forms are registered.
func WireTagOf(msg any) (WireTag, bool) {
	switch msg.(type) {
	case ProposalMsg:
		return TagProposal, true
	case VoteMsg:
		return TagVote, true
	case TimeoutMsg:
		return TagTimeout, true
	case TCMsg:
		return TagTC, true
	case FetchMsg:
		return TagFetch, true
	case SyncRequestMsg:
		return TagSyncRequest, true
	case SyncResponseMsg:
		return TagSyncResponse, true
	case SnapshotRequestMsg:
		return TagSnapshotRequest, true
	case SnapshotManifestMsg:
		return TagSnapshotManifest, true
	case SnapshotChunkMsg:
		return TagSnapshotChunk, true
	case RequestMsg:
		return TagRequest, true
	case ReplyMsg:
		return TagReply, true
	case QueryMsg:
		return TagQuery, true
	case QueryReplyMsg:
		return TagQueryReply, true
	case SlowMsg:
		return TagSlow, true
	}
	return TagInvalid, false
}
