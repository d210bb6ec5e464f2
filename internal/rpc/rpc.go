// Package rpc provides the client/server wire layer that lets the
// benchmark drive the storage engine over TCP, the way IoTDB-benchmark
// drives an IoTDB server (Section VI-A2). The protocol is a minimal
// length-prefixed binary framing.
//
// Every connection starts with an untagged hello exchange:
//
//	request:  uint32 length | byte OpHello | magic "GTSD" | byte version
//	response: uint32 length | byte status  | payload
//
// The client's first frame must be OpHello carrying the 4-byte magic
// and its protocol version. The handshake is exact-match: the server
// answers with its magic and version only when the client's version
// equals its own, and the client accepts only a reply carrying its own
// version. Either side refuses a mismatch with an error naming both
// versions and drops the connection. The hello keeps the untagged
// shape so that a peer of any version can still decode the refusal.
//
// Every frame after the hello is tagged:
//
//	request:  uint32 length | byte opcode | uint32 tag | payload
//	response: uint32 length | byte status | uint32 tag | payload
//
// The length covers the kind byte, the tag and the payload. The tag
// is chosen by the client and echoed by the server, so many requests
// can be pipelined on one connection and answered out of order.
// Status is StatusOK, StatusError (the payload is the error text) or
// StatusOverloaded (the server's bounded dispatch queue was full, the
// request was NOT executed, and the payload carries a uvarint
// retry-after hint in milliseconds).
//
// Payloads use uvarint-prefixed strings, varint timestamps and
// little-endian float64 values. The one exception is the OpStats
// reply: the JSON encoding of the aggregate engine.Stats and the
// per-shard breakdown, the same struct the HTTP gateway serves on
// GET /stats, so a new Stats field travels without a protocol change.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/engine"
)

// Opcodes.
const (
	OpInsert byte = 1 // sensor, n, n*(varint delta-less time, float64)
	OpQuery  byte = 2 // sensor, minT, maxT -> n, n*(time, value)
	OpLatest byte = 3 // sensor -> bool, time
	OpStats  byte = 4 // -> JSON statsPayload
	OpFlush  byte = 5 // force flush
	OpWait   byte = 6 // wait for in-flight background flushes
	OpAgg    byte = 7 // sensor, startT, endT, window, agg -> windows
	OpHello  byte = 8 // magic, version -> magic, server version
)

// ProtocolVersion is the version byte this build speaks. Bump it when
// the wire format changes shape; the handshake refuses any peer that
// speaks another version.
const ProtocolVersion = 9

// Response status bytes.
const (
	StatusOK         byte = 0
	StatusError      byte = 1
	StatusOverloaded byte = 2
)

// protocolMagic opens every handshake payload. Four printable bytes so
// an accidental connection from an unrelated protocol is rejected with
// a clear error rather than a frame-length explosion.
var protocolMagic = [4]byte{'G', 'T', 'S', 'D'}

// helloPayload is the OpHello payload and the server's reply to it:
// the magic, then a protocol version.
func helloPayload(version byte) []byte {
	return append(append([]byte(nil), protocolMagic[:]...), version)
}

// helloFrameLen is the length of a hello frame: kind byte, magic and
// version. The server reads a connection's first frame with this
// limit, so a peer cannot make it allocate before the handshake.
const helloFrameLen = uint32(1 + len(protocolMagic) + 1)

// MaxFrame bounds a frame to keep a malformed peer from forcing a
// giant allocation. 16 MiB fits > one million points per batch.
const MaxFrame = 16 << 20

// smallFrame is the largest frame body read into one exact allocation
// made before its bytes arrive. Larger bodies grow their buffer as
// bytes arrive, so a header that claims MaxFrame and is followed by
// nothing costs the server no more than this.
const smallFrame = 64 << 10

// errFrameLength reports a length prefix outside the reader's bounds.
var errFrameLength = errors.New("rpc: invalid frame length")

// ErrRemote wraps an error string returned by the server.
var ErrRemote = errors.New("rpc: remote error")

// ErrOverloaded is the sentinel behind every overload rejection: the
// server's bounded dispatch queue was full and the request was NOT
// executed, so retrying is always safe (including writes). Check with
// errors.Is; errors.As against *OverloadedError recovers the server's
// retry-after hint.
var ErrOverloaded = errors.New("rpc: server overloaded")

// OverloadedError carries the server's retry-after hint alongside the
// ErrOverloaded sentinel.
type OverloadedError struct {
	// RetryAfter is the server's estimate of when queue capacity is
	// likely back — a hint, not a guarantee.
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("rpc: server overloaded; retry after %v", e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) hold.
func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// statsPayload is the OpStats reply. Shards is empty against a bare
// engine.
type statsPayload struct {
	Total  engine.Stats   `json:"total"`
	Shards []engine.Stats `json:"shards"`
}

// writeFrame sends one untagged (hello) frame.
func writeFrame(w io.Writer, kind byte, payload []byte) error {
	var hdr [5]byte
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("rpc: frame too large: %d", len(payload))
	}
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = kind
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one untagged (hello) frame of at most limit bytes,
// returning its kind byte and payload. A length prefix out of bounds
// fails with errFrameLength before any body byte is read.
func readFrame(r io.Reader, limit uint32) (byte, []byte, error) {
	buf, err := readBody(r, 1, limit)
	if err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// writeTaggedFrame sends one tagged frame: kind byte, then a 4-byte
// little-endian tag, then the payload.
func writeTaggedFrame(w io.Writer, kind byte, tag uint32, payload []byte) error {
	if len(payload)+5 > MaxFrame {
		return fmt.Errorf("rpc: frame too large: %d", len(payload))
	}
	var hdr [9]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+5))
	hdr[4] = kind
	binary.LittleEndian.PutUint32(hdr[5:9], tag)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// appendTaggedFrame encodes the same wire bytes as writeTaggedFrame
// into b, for senders that batch frames before one Write.
func appendTaggedFrame(b []byte, kind byte, tag uint32, payload []byte) ([]byte, error) {
	if len(payload)+5 > MaxFrame {
		return b, fmt.Errorf("rpc: frame too large: %d", len(payload))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)+5))
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint32(b, tag)
	return append(b, payload...), nil
}

// readTaggedFrame reads one tagged frame, returning its kind byte, tag
// and payload.
func readTaggedFrame(r io.Reader) (byte, uint32, []byte, error) {
	buf, err := readBody(r, 5, MaxFrame)
	if err != nil {
		return 0, 0, nil, err
	}
	return buf[0], binary.LittleEndian.Uint32(buf[1:5]), buf[5:], nil
}

// readBody reads a frame's length prefix, checks it against
// [minLen, limit] and reads the body it announces. A body up to
// smallFrame gets one exact allocation; a larger one grows its buffer
// only as bytes arrive, so the allocation tracks what the peer has
// actually sent rather than what its header claims.
func readBody(r io.Reader, minLen, limit uint32) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < minLen || n > limit {
		return nil, fmt.Errorf("%w %d", errFrameLength, n)
	}
	if n <= smallFrame {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf := make([]byte, 0, smallFrame)
	for len(buf) < int(n) {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(len(buf), int(n)-len(buf)))
		}
		m, err := r.Read(buf[len(buf):min(cap(buf), int(n))])
		buf = buf[:len(buf)+m]
		if err != nil && len(buf) < int(n) {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// encodeOverloadPayload/decodeOverloadPayload carry the retry-after
// hint of a StatusOverloaded response as uvarint milliseconds.
func encodeOverloadPayload(hint time.Duration) []byte {
	ms := hint.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return binary.AppendUvarint(nil, uint64(ms))
}

func decodeOverloadPayload(payload []byte) *OverloadedError {
	p := &payloadReader{b: payload}
	ms, err := p.uvarint()
	if err != nil || ms == 0 {
		ms = 50 // malformed hint: fall back to a sane default
	}
	return &OverloadedError{RetryAfter: time.Duration(ms) * time.Millisecond}
}

// Payload encoding helpers.

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat64(b []byte, f float64) []byte {
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], math.Float64bits(f))
	return append(b, v[:]...)
}

// payloadReader decodes the helpers above.
type payloadReader struct {
	b   []byte
	pos int
}

func (p *payloadReader) ReadByte() (byte, error) {
	if p.pos >= len(p.b) {
		return 0, io.ErrUnexpectedEOF
	}
	c := p.b[p.pos]
	p.pos++
	return c, nil
}

func (p *payloadReader) varint() (int64, error)   { return binary.ReadVarint(p) }
func (p *payloadReader) uvarint() (uint64, error) { return binary.ReadUvarint(p) }

func (p *payloadReader) str() (string, error) {
	n, err := p.uvarint()
	if err != nil {
		return "", err
	}
	// Compare in uint64: a length of 2^63 or more would turn negative
	// as an int and slip past the bounds check.
	if n > uint64(len(p.b)-p.pos) {
		return "", io.ErrUnexpectedEOF
	}
	s := string(p.b[p.pos : p.pos+int(n)])
	p.pos += int(n)
	return s, nil
}

func (p *payloadReader) float64() (float64, error) {
	if p.pos+8 > len(p.b) {
		return 0, io.ErrUnexpectedEOF
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(p.b[p.pos:]))
	p.pos += 8
	return v, nil
}
