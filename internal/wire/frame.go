package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// The binary sample transport: a body is a sequence of self-describing
// frames, each one chunk of raw ADC samples. Everything is little-endian.
//
//	offset  size  field
//	0       4     magic "RPBS"
//	4       1     version (1)
//	5       1     width: 1, 2 or 4
//	6       4     count (uint32): samples in this frame
//	10      …     payload
//
// Payload by width:
//
//	width 4  count int32s, the samples verbatim
//	width 2  count int16s (every sample must fit int16 — always true for
//	         the 11-bit ADC geometries the paper targets)
//	width 1  one int32 base (the first sample) followed by count-1 int8
//	         first differences; empty when count is 0. ECG is smooth at
//	         360 Hz, so deltas almost always fit int8 and a record costs
//	         ~1 byte per sample — ~5x under its decimal JSON size.
//
// Decoders bound count by MaxFrameSamples BEFORE allocating anything
// (mirroring core.MaxModelBytes: hostile lengths are rejected, not
// trusted), reject unknown magic/version/width, and report truncation as a
// typed *FrameError instead of panicking. Delta accumulation uses int32
// wraparound on hostile input — deterministic, never a crash.
const (
	// FrameVersion is the (only) frame format version.
	FrameVersion = 1
	// FrameHeaderLen is the fixed frame header size in bytes.
	FrameHeaderLen = 10
	// MaxFrameSamples bounds one frame's sample count (~97 minutes of one
	// 360 Hz lead; 8 MiB of payload at width 4) — the binary counterpart of
	// the NDJSON line length bound.
	MaxFrameSamples = 1 << 21
)

var frameMagic = [4]byte{'R', 'P', 'B', 'S'}

// FrameError is the typed rejection of the binary decoder (bad magic,
// version, width, or a truncated frame). The serving layer renders it as
// bad_input.
type FrameError struct {
	Msg string
}

func (e *FrameError) Error() string { return "invalid sample frame: " + e.Msg }

// ErrFrameTooLarge rejects a frame whose declared count exceeds
// MaxFrameSamples, before any payload is read or allocated. The serving
// layer renders it as payload_too_large.
var ErrFrameTooLarge = errors.New("sample frame exceeds " +
	"the per-frame sample bound")

var (
	errTruncatedHeader  = &FrameError{"truncated header"}
	errTruncatedPayload = &FrameError{"truncated payload"}
)

// decodeHeader validates one frame header and returns its width and count.
func decodeHeader(hdr []byte) (width, count int, err error) {
	if [4]byte(hdr[:4]) != frameMagic {
		return 0, 0, &FrameError{"bad magic (want \"RPBS\")"}
	}
	if hdr[4] != FrameVersion {
		return 0, 0, &FrameError{"unsupported version"}
	}
	width = int(hdr[5])
	if width != 1 && width != 2 && width != 4 {
		return 0, 0, &FrameError{"width must be 1, 2 or 4"}
	}
	// Bound-check in uint32 before converting: on 32-bit platforms a
	// hostile count like 0xFFFFFFFF would wrap negative as an int and slip
	// past the bound into a negative payload size.
	c := binary.LittleEndian.Uint32(hdr[6:10])
	if c > MaxFrameSamples {
		return 0, 0, ErrFrameTooLarge
	}
	return width, int(c), nil
}

// payloadSize returns the exact payload byte count of a frame.
func payloadSize(width, count int) int {
	switch width {
	case 1:
		if count == 0 {
			return 0
		}
		return 4 + count - 1
	case 2:
		return 2 * count
	default:
		return 4 * count
	}
}

// decodePayload appends a validated payload's samples onto dst.
func decodePayload(dst []int32, p []byte, width, count int) []int32 {
	switch width {
	case 1:
		if count == 0 {
			return dst
		}
		v := int32(binary.LittleEndian.Uint32(p))
		dst = append(dst, v)
		for _, d := range p[4:] {
			v += int32(int8(d))
			dst = append(dst, v)
		}
	case 2:
		for i := 0; i < count; i++ {
			dst = append(dst, int32(int16(binary.LittleEndian.Uint16(p[2*i:]))))
		}
	default:
		for i := 0; i < count; i++ {
			dst = append(dst, int32(binary.LittleEndian.Uint32(p[4*i:])))
		}
	}
	return dst
}

// DecodeFrame decodes the first frame of data, appending its samples onto
// dst (append — a multi-frame body accumulates into one lead), and returns
// the remaining bytes. A warm dst makes decoding allocation-free.
func DecodeFrame(dst []int32, data []byte) (samples []int32, rest []byte, err error) {
	if len(data) < FrameHeaderLen {
		return dst, data, errTruncatedHeader
	}
	width, count, err := decodeHeader(data)
	if err != nil {
		return dst, data, err
	}
	n := payloadSize(width, count)
	if len(data)-FrameHeaderLen < n {
		return dst, data, errTruncatedPayload
	}
	dst = decodePayload(dst, data[FrameHeaderLen:FrameHeaderLen+n], width, count)
	return dst, data[FrameHeaderLen+n:], nil
}

// FrameWidth returns the smallest width that represents samples exactly:
// 1 when every first difference fits int8 (and samples fit int16), 2 when
// the samples fit int16, 4 otherwise.
func FrameWidth(samples []int32) int {
	width := 1
	for i, v := range samples {
		if v < math.MinInt16 || v > math.MaxInt16 {
			return 4
		}
		if width == 1 && i > 0 {
			if d := int64(v) - int64(samples[i-1]); d < math.MinInt8 || d > math.MaxInt8 {
				width = 2
			}
		}
	}
	return width
}

// AppendFrame appends samples as one frame at the smallest exact width.
// It fails only when len(samples) exceeds MaxFrameSamples — split with
// AppendFrames instead.
func AppendFrame(buf []byte, samples []int32) ([]byte, error) {
	return AppendFrameWidth(buf, samples, FrameWidth(samples))
}

// AppendFrameWidth appends samples as one frame at an explicit width,
// erroring when the samples (or their deltas, at width 1) do not fit.
func AppendFrameWidth(buf []byte, samples []int32, width int) ([]byte, error) {
	if len(samples) > MaxFrameSamples {
		return buf, ErrFrameTooLarge
	}
	if width != 1 && width != 2 && width != 4 {
		return buf, &FrameError{"width must be 1, 2 or 4"}
	}
	buf = append(buf, frameMagic[:]...)
	buf = append(buf, FrameVersion, byte(width))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(samples)))
	switch width {
	case 1:
		if len(samples) == 0 {
			return buf, nil
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(samples[0]))
		for i := 1; i < len(samples); i++ {
			d := int64(samples[i]) - int64(samples[i-1])
			if d < math.MinInt8 || d > math.MaxInt8 {
				return buf, &FrameError{"delta does not fit int8"}
			}
			buf = append(buf, byte(int8(d)))
		}
	case 2:
		for _, v := range samples {
			if v < math.MinInt16 || v > math.MaxInt16 {
				return buf, &FrameError{"sample does not fit int16"}
			}
			buf = binary.LittleEndian.AppendUint16(buf, uint16(int16(v)))
		}
	default:
		for _, v := range samples {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	return buf, nil
}

// defaultFrameLen is AppendFrames' split size: long enough that the 10-byte
// header amortizes away, short enough that one outlier delta only forces a
// single frame (not a whole record) up to width 2.
const defaultFrameLen = 2048

// AppendFrames encodes a whole record as consecutive frames of at most
// frameLen samples each (0 selects the default), each frame at its own
// smallest exact width — the client-side record encoder for /v1/classify
// and the chunked uplink for /v1/stream.
func AppendFrames(buf []byte, samples []int32, frameLen int) []byte {
	if frameLen <= 0 || frameLen > MaxFrameSamples {
		frameLen = defaultFrameLen
	}
	for off := 0; off < len(samples); off += frameLen {
		end := min(off+frameLen, len(samples))
		// Width is exact by construction, and the slice is within the
		// frame bound: AppendFrameWidth cannot fail here.
		buf, _ = AppendFrame(buf, samples[off:end])
	}
	return buf
}
