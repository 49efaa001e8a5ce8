package fsproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Page-sized payloads do not ride inside JSON. A read or KV-get answers
// 200 with the payload as the whole body (ContentTypeOctets; errors stay
// JSON), and a write or KV-put sends one frame (ContentTypeFrame):
//
//	uint32be(len(meta)) ‖ meta ‖ payload
//
// where meta is the JSON of the request struct with its payload field nil
// and payload is the raw bytes that field would have carried. The same
// endpoints still accept the plain JSON form with the payload inline.
const (
	ContentTypeJSON   = "application/json"
	ContentTypeOctets = "application/octet-stream"
	ContentTypeFrame  = "application/x-fsencr-frame"
)

// FrameHeaderLen is the size of a frame's meta-length prefix.
const FrameHeaderLen = 4

// MaxBodyBytes bounds one request or response body: a megabyte of payload
// is the largest read the service answers, and a frame that size still
// fits its meta.
const MaxBodyBytes = 1 << 20

// ErrFrame reports a body that is not a well-formed frame.
var ErrFrame = errors.New("fsproto: malformed frame")

// AppendFrame appends the frame of meta and payload to dst.
func AppendFrame(dst, meta, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(meta)))
	dst = append(dst, meta...)
	return append(dst, payload...)
}

// SplitFrame splits a frame into its meta and payload. Both alias b: no
// byte is copied and nothing is allocated, whatever length the header
// claims.
func SplitFrame(b []byte) (meta, payload []byte, err error) {
	if len(b) < FrameHeaderLen {
		return nil, nil, fmt.Errorf("%w: %d-byte body is shorter than the length prefix", ErrFrame, len(b))
	}
	n := uint64(binary.BigEndian.Uint32(b))
	rest := b[FrameHeaderLen:]
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: meta length %d exceeds the %d bytes that follow", ErrFrame, n, len(rest))
	}
	return rest[:n:n], rest[n:], nil
}

// ReadBody reads one HTTP body of the declared length (-1: unknown) into a
// single buffer, refusing anything over limit before allocating for it.
func ReadBody(r io.Reader, length int64, limit int) ([]byte, error) {
	if length > int64(limit) {
		return nil, fmt.Errorf("fsproto: %d-byte body exceeds the %d-byte limit", length, limit)
	}
	if length >= 0 {
		buf := make([]byte, length)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("fsproto: read body: %w", err)
		}
		return buf, nil
	}
	buf, err := io.ReadAll(io.LimitReader(r, int64(limit)+1))
	if err != nil {
		return nil, fmt.Errorf("fsproto: read body: %w", err)
	}
	if len(buf) > limit {
		return nil, fmt.Errorf("fsproto: body exceeds the %d-byte limit", limit)
	}
	return buf, nil
}
