package codec

import (
	"bytes"
	"encoding/hex"
	"errors"
	"strings"
	"testing"
)

// retiredFrames are frames of the retired digest-proposal data plane,
// as the last encoder that spoke them wrote them (the golden bytes of
// a digest-form proposal and a payload-sync batch). A proposal
// carrying a non-zero payload-ID count is refused with an error
// naming the retired field; tag 12 is reserved and refused as unknown.
var retiredFrames = []struct {
	name, frame string
	want        error
	mention     string
}{
	{
		name:    "proposal-digest",
		frame:   "d0000000010103000000010900000000000000020000000100000000000000000000000000000000000000000000000000000000000000010800000000000000ab01020300000000000000000000000000000000000000000000000000000000030000000100000002000000030000000300000002000000111201000000210300000031323300000000d1d200000000000000000000000000000000000000000000000000000000000001000000cc00020000000400000000000000020000000000000004000000000000000300000000000000",
		want:    ErrBadFrame,
		mention: "payload ids",
	},
	{
		name:  "payload-batch",
		frame: "45000000010c03000000020000000100000000000000010000000000000007000000000000000100000061010000000000000002000000000000000000000000000000020000006262",
		want:  ErrUnknownTag,
	},
}

// TestRetiredFramesRefused: retired frames must not parse, and the
// refusal stays recoverable, so a stale peer costs one frame, not the
// connection.
func TestRetiredFramesRefused(t *testing.T) {
	for _, tc := range retiredFrames {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := hex.DecodeString(tc.frame)
			if err != nil {
				t.Fatal(err)
			}
			env, err := NewDecoder(bytes.NewReader(raw)).Decode()
			if !errors.Is(err, tc.want) {
				t.Fatalf("decoded %T (err %v), want %v", env.Msg, err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.mention) {
				t.Fatalf("error %q does not name %q", err, tc.mention)
			}
			if !Recoverable(err) {
				t.Fatalf("refusal must be recoverable: %v", err)
			}
		})
	}
}
