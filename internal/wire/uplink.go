package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// The /v1/stream uplink is a sequence of units: binary frames under
// ContentTypeSamples, NDJSON chunk lines otherwise. UplinkReader is the one
// reader of that framing. The serving layer classifies each unit's samples
// and the gateway journals each unit's verbatim bytes for replay, so both
// see the same unit boundaries, sample counts and failure points.

// MaxLineBytes bounds one NDJSON chunk line, newline included: the text
// counterpart of MaxFrameSamples.
const MaxLineBytes = 8 << 20

// ErrLineTooLong rejects an NDJSON chunk line of more than MaxLineBytes.
// The serving layer renders it as payload_too_large.
var ErrLineTooLong = fmt.Errorf("stream line exceeds %d bytes", MaxLineBytes)

// minUplinkBuf is the reader's first buffer: several one-second chunks of
// either encoding. It grows to the largest unit the body carries.
const minUplinkBuf = 4 << 10

// UplinkReader reads a /v1/stream body one unit at a time. It reads the body
// only when the buffered bytes hold no whole unit, so each unit is returned
// as soon as its last byte arrives.
type UplinkReader struct {
	r       io.Reader
	binary  bool
	buf     []byte // buf[start:end] is read from r but not yet returned
	start   int
	end     int
	err     error // r's first error, io.EOF included; sticky
	samples []int32
}

// NewUplinkReader reads units from r: binary frames when binary is set,
// NDJSON chunk lines otherwise.
func NewUplinkReader(r io.Reader, binary bool) *UplinkReader {
	return &UplinkReader{r: r, binary: binary}
}

// Next returns the next unit's verbatim bytes and decoded samples, both
// valid until the next call; a blank line is a unit with no samples. A body
// that ends on a unit boundary ends with io.EOF. A final line without its
// newline is a unit like any other, returned before the EOF or transport
// error that ended it; a frame cut short by EOF is a *FrameError.
//
// A malformed or oversized unit returns an error Malformed recognizes, with
// raw holding the bytes consumed for it: the unit itself, its header, or
// the first MaxLineBytes bytes of an overlong line. Any other error is the
// body's own, with raw holding a partial frame's bytes.
func (u *UplinkReader) Next() (raw []byte, samples []int32, err error) {
	if u.binary {
		return u.nextFrame()
	}
	return u.nextLine()
}

// nextFrame reads one binary frame. Buffer growth lives in read.
//
//rpbeat:allocfree
func (u *UplinkReader) nextFrame() ([]byte, []int32, error) {
	if err := u.fill(FrameHeaderLen); err != nil {
		if err == io.EOF {
			if u.start == u.end {
				return nil, nil, io.EOF
			}
			err = errTruncatedHeader
		}
		return u.take(u.end - u.start), nil, err
	}
	width, count, err := decodeHeader(u.buf[u.start:u.end])
	if err != nil {
		return u.take(FrameHeaderLen), nil, err
	}
	n := FrameHeaderLen + payloadSize(width, count)
	if err := u.fill(n); err != nil {
		if err == io.EOF {
			err = errTruncatedPayload
		}
		return u.take(u.end - u.start), nil, err
	}
	raw := u.take(n)
	u.samples = decodePayload(u.samples[:0], raw[FrameHeaderLen:], width, count)
	return raw, u.samples, nil
}

// fill reads until n bytes are buffered, or r fails.
func (u *UplinkReader) fill(n int) error {
	for u.end-u.start < n {
		if u.err != nil {
			return u.err
		}
		u.read(n)
	}
	return nil
}

// nextLine reads one NDJSON chunk line. Buffer growth lives in read, and
// the rejection of a bad line in line.
//
//rpbeat:allocfree
func (u *UplinkReader) nextLine() ([]byte, []int32, error) {
	scanned := 0
	for {
		window := u.buf[u.start:min(u.end, u.start+MaxLineBytes)]
		if i := bytes.IndexByte(window[scanned:], '\n'); i >= 0 {
			return u.line(u.take(scanned + i + 1))
		}
		scanned = len(window)
		switch {
		case scanned == MaxLineBytes:
			return u.take(MaxLineBytes), nil, ErrLineTooLong
		case u.err != nil && scanned > 0:
			return u.line(u.take(scanned))
		case u.err != nil:
			return nil, nil, u.err
		}
		u.read(scanned + 1)
	}
}

// line decodes one NDJSON unit: raw less its newline and a carriage return
// before that, exactly as the line was framed on the client.
func (u *UplinkReader) line(raw []byte) ([]byte, []int32, error) {
	text := raw
	if n := len(text); n > 0 && text[n-1] == '\n' {
		text = text[:n-1]
	}
	if n := len(text); n > 0 && text[n-1] == '\r' {
		text = text[:n-1]
	}
	u.samples = u.samples[:0]
	if len(text) == 0 {
		return raw, u.samples, nil
	}
	var err error
	if u.samples, err = ParseChunk(u.samples, text); err != nil {
		return raw, nil, fmt.Errorf("bad chunk: %w", err)
	}
	return raw, u.samples, nil
}

// take consumes the next n buffered bytes.
func (u *UplinkReader) take(n int) []byte {
	raw := u.buf[u.start : u.start+n]
	u.start += n
	return raw
}

// read makes room for a unit of at least n bytes, moving the buffered bytes
// to the front and doubling the buffer when they fill it, then reads r once.
func (u *UplinkReader) read(n int) {
	if u.start > 0 {
		u.end = copy(u.buf, u.buf[u.start:u.end])
		u.start = 0
	}
	if n > len(u.buf) {
		grown := make([]byte, max(n, 2*len(u.buf), minUplinkBuf))
		copy(grown, u.buf[:u.end])
		u.buf = grown
	}
	m, err := u.r.Read(u.buf[u.end:])
	u.end += m
	if err != nil {
		u.err = err
	}
}

// Read reads the body past the last unit Next returned, buffered bytes
// first, so a relay that stops parsing can still forward the rest verbatim.
func (u *UplinkReader) Read(p []byte) (int, error) {
	if u.start < u.end {
		n := copy(p, u.buf[u.start:u.end])
		u.start += n
		return n, nil
	}
	if u.err != nil {
		return 0, u.err
	}
	return u.r.Read(p)
}

// Malformed reports whether err is Next's rejection of a unit's bytes
// rather than a failure of the body underneath.
func Malformed(err error) bool {
	var fe *FrameError
	var se *SyntaxError
	return errors.As(err, &fe) || errors.As(err, &se) ||
		errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrLineTooLong)
}
