package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/rng"
)

// TestFrameRoundTrip: encode → decode is the identity for every width, at
// hostile sizes and values.
func TestFrameRoundTrip(t *testing.T) {
	r := rng.New(21)
	cases := [][]int32{
		nil,
		{},
		{0},
		{-1},
		{math.MaxInt16, math.MinInt16},
		{math.MaxInt32, math.MinInt32, 0, -1},
		{1000, 1001, 999, 1127, 1000}, // int8 deltas
		{1000, 2000},                  // delta overflow -> width 2
	}
	long := make([]int32, 10000)
	for i := range long {
		long[i] = int32(r.Intn(1 << 20))
	}
	cases = append(cases, long)
	for ci, samples := range cases {
		for _, width := range []int{0, 1, 2, 4} { // 0 = auto
			var (
				enc []byte
				err error
			)
			if width == 0 {
				enc, err = AppendFrame(nil, samples)
			} else {
				enc, err = AppendFrameWidth(nil, samples, width)
				if err != nil {
					continue // samples legitimately don't fit this width
				}
			}
			if err != nil {
				t.Fatalf("case %d width %d: %v", ci, width, err)
			}
			dec, rest, err := DecodeFrame(nil, enc)
			if err != nil {
				t.Fatalf("case %d width %d: decode: %v", ci, width, err)
			}
			if len(rest) != 0 {
				t.Fatalf("case %d width %d: %d trailing bytes", ci, width, len(rest))
			}
			if !sameSamples(dec, samples) {
				t.Fatalf("case %d width %d: decode mismatch", ci, width)
			}
		}
	}
}

// TestFrameWidthSelection pins the auto-width policy.
func TestFrameWidthSelection(t *testing.T) {
	cases := []struct {
		samples []int32
		want    int
	}{
		{nil, 1},
		{[]int32{1000, 1010, 1005}, 1},
		{[]int32{1000, 1128}, 2}, // delta +128 exceeds int8
		{[]int32{0, 127}, 1},
		{[]int32{0, 128}, 2},
		{[]int32{0, -128}, 1},
		{[]int32{0, -129}, 2},
		{[]int32{40000}, 4},
		{[]int32{0, 1 << 20}, 4},
	}
	for _, c := range cases {
		if got := FrameWidth(c.samples); got != c.want {
			t.Fatalf("FrameWidth(%v) = %d, want %d", c.samples, got, c.want)
		}
	}
}

// TestFramesSplitRecord: a long record through AppendFrames decodes to the
// identical lead via both the byte-slice decoder and the uplink reader, and
// the delta coding actually lands near 1 byte/sample on real ECG.
func TestFramesSplitRecord(t *testing.T) {
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "fr", Seconds: 30, Seed: 4, PVCRate: 0.1}).Leads[0]
	body := AppendFrames(nil, lead, 1024)
	if got, want := len(body), 2*len(lead); got >= want {
		t.Fatalf("framed record is %d bytes for %d samples; delta coding should beat int16 (%d)", got, len(lead), want)
	}

	// Byte-slice decoder, accumulating across frames.
	var dec []int32
	data := body
	for len(data) > 0 {
		var err error
		dec, data, err = DecodeFrame(dec, data)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sameSamples(dec, lead) {
		t.Fatal("byte-slice decode mismatch")
	}

	// Uplink reader, chunk per frame.
	ur := NewUplinkReader(bytes.NewReader(body), true)
	var streamed []int32
	for {
		_, chunk, err := ur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, chunk...)
	}
	if !sameSamples(streamed, lead) {
		t.Fatal("streaming decode mismatch")
	}
}

// TestFrameDecoderRejectsHostileInput: every malformed frame is a typed
// error (never a panic), and oversized counts are rejected before any
// allocation.
func TestFrameDecoderRejectsHostileInput(t *testing.T) {
	good, err := AppendFrame(nil, []int32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	huge := append([]byte{}, good[:6]...) // magic+version+width
	huge = binary.LittleEndian.AppendUint32(huge, math.MaxUint32)

	cases := []struct {
		name    string
		data    []byte
		tooBig  bool
		isFrame bool
	}{
		{"empty", nil, false, true},
		{"short header", good[:5], false, true},
		{"bad magic", append([]byte("XXXX"), good[4:]...), false, true},
		{"bad version", append(append([]byte{}, good[:4]...), append([]byte{9}, good[5:]...)...), false, true},
		{"bad width", append(append([]byte{}, good[:5]...), append([]byte{3}, good[6:]...)...), false, true},
		{"truncated payload", good[:len(good)-1], false, true},
		{"oversized count", huge, true, false},
	}
	for _, c := range cases {
		_, _, err := DecodeFrame(nil, c.data)
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if c.tooBig != errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("%s: ErrFrameTooLarge = %v, want %v (err %v)", c.name, !c.tooBig, c.tooBig, err)
		}
		var fe *FrameError
		if c.isFrame && !errors.As(err, &fe) {
			t.Fatalf("%s: error %v is not a *FrameError", c.name, err)
		}

		// The uplink reader must agree.
		_, _, rerr := NewUplinkReader(bytes.NewReader(c.data), true).Next()
		if len(c.data) == 0 {
			if rerr != io.EOF {
				t.Fatalf("%s: reader err = %v, want io.EOF at clean boundary", c.name, rerr)
			}
			continue
		}
		if rerr == nil {
			t.Fatalf("%s: reader accepted", c.name)
		}
		if c.tooBig != errors.Is(rerr, ErrFrameTooLarge) {
			t.Fatalf("%s: reader ErrFrameTooLarge mismatch: %v", c.name, rerr)
		}
	}
}

func BenchmarkWireDecodeFrame(b *testing.B) {
	samples := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "bf", Seconds: 10, Seed: 3}).Leads[0][:360]
	frame, err := AppendFrame(nil, samples)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]int32, 0, 512)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		dst, _, err = DecodeFrame(dst[:0], frame)
		if err != nil {
			b.Fatal(err)
		}
	}
}
