// Package wirebench measures the binary wire codec against the gob
// implementation it replaced. The gob codec lives on here — verbatim
// but renamed — as the reference point for the CI perf gate: the
// BENCH_wire.json report proves, on every run, that the hand-rolled
// format still beats the frame layout the repo started with, rather
// than asserting it once and trusting history.
package wirebench

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/bamboo-bft/bamboo/internal/codec"
	"github.com/bamboo-bft/bamboo/internal/types"
)

// errGobFrameTooLarge mirrors the old codec's ErrFrameTooLarge; after
// it the gob stream is unusable (its type dictionary may have advanced
// past what the peer saw), which is exactly the coupling the binary
// codec removed.
var errGobFrameTooLarge = errors.New("wirebench: gob frame exceeds MaxFrame")

var gobRegisterOnce sync.Once

// registerGobTypes makes every wire message known to gob, as the old
// codec did lazily from its constructors.
func registerGobTypes() {
	gobRegisterOnce.Do(func() {
		gob.Register(types.ProposalMsg{})
		gob.Register(types.VoteMsg{})
		gob.Register(types.TimeoutMsg{})
		gob.Register(types.TCMsg{})
		gob.Register(types.FetchMsg{})
		gob.Register(types.SyncRequestMsg{})
		gob.Register(types.SyncResponseMsg{})
		gob.Register(types.SnapshotRequestMsg{})
		gob.Register(types.SnapshotManifestMsg{})
		gob.Register(types.SnapshotChunkMsg{})
		gob.Register(types.RequestMsg{})
		gob.Register(types.ReplyMsg{})
		gob.Register(types.QueryMsg{})
		gob.Register(types.QueryReplyMsg{})
		gob.Register(types.SlowMsg{})
	})
}

// gobShrinkCap is the staging-buffer capacity above which the old
// encoder released its backing array after a frame.
const gobShrinkCap = 1 << 20

// GobEncoder is the retired production encoder: gob bytes behind a
// uvarint length prefix, one Flush per Encode.
type GobEncoder struct {
	w   *bufio.Writer
	buf bytes.Buffer
	enc *gob.Encoder
	hdr [binary.MaxVarintLen64]byte
}

// NewGobEncoder returns a GobEncoder writing to w.
func NewGobEncoder(w io.Writer) *GobEncoder {
	registerGobTypes()
	e := &GobEncoder{w: bufio.NewWriter(w)}
	e.enc = gob.NewEncoder(&e.buf)
	return e
}

// Encode writes one envelope and returns the bytes that hit the
// stream.
func (e *GobEncoder) Encode(env codec.Envelope) (int, error) {
	e.buf.Reset()
	if err := e.enc.Encode(&env); err != nil {
		return 0, fmt.Errorf("wirebench: gob encode: %w", err)
	}
	if e.buf.Len() > codec.MaxFrame {
		return 0, fmt.Errorf("wirebench: %d-byte message: %w", e.buf.Len(), errGobFrameTooLarge)
	}
	n := binary.PutUvarint(e.hdr[:], uint64(e.buf.Len()))
	if _, err := e.w.Write(e.hdr[:n]); err != nil {
		return 0, err
	}
	if _, err := e.w.Write(e.buf.Bytes()); err != nil {
		return 0, err
	}
	if err := e.w.Flush(); err != nil {
		return 0, err
	}
	written := n + e.buf.Len()
	if e.buf.Cap() > gobShrinkCap {
		e.buf = bytes.Buffer{}
	}
	return written, nil
}

// GobDecoder is the retired production decoder.
type GobDecoder struct {
	dec *gob.Decoder
}

// NewGobDecoder returns a GobDecoder reading from r.
func NewGobDecoder(r io.Reader) *GobDecoder {
	registerGobTypes()
	return &GobDecoder{dec: gob.NewDecoder(newGobFrameReader(r))}
}

// Decode reads one envelope.
func (d *GobDecoder) Decode() (codec.Envelope, error) {
	var env codec.Envelope
	if err := d.dec.Decode(&env); err != nil {
		if err == io.EOF {
			return env, io.EOF
		}
		return env, fmt.Errorf("wirebench: gob decode: %w", err)
	}
	return env, nil
}

// gobFrameReader strips the uvarint length prefixes, presenting the
// concatenated frame payloads as one plain stream while enforcing
// MaxFrame per frame.
type gobFrameReader struct {
	r         *bufio.Reader
	remaining int64
}

func newGobFrameReader(r io.Reader) *gobFrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &gobFrameReader{r: br}
}

func (f *gobFrameReader) Read(p []byte) (int, error) {
	for f.remaining == 0 {
		size, err := binary.ReadUvarint(f.r)
		if err != nil {
			return 0, err
		}
		if size > codec.MaxFrame {
			return 0, fmt.Errorf("wirebench: %d-byte frame announced: %w", size, errGobFrameTooLarge)
		}
		f.remaining = int64(size)
	}
	if int64(len(p)) > f.remaining {
		p = p[:f.remaining]
	}
	n, err := f.r.Read(p)
	f.remaining -= int64(n)
	return n, err
}
