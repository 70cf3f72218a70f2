package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"
)

// The fuzz targets hold the codec's two safety contracts:
//
//  1. Soundness: whenever the fast parser ACCEPTS an input, encoding/json
//     accepts it too and produces the identical value — so no byte sequence
//     can mean two different things on the fast and stdlib paths. (The fast
//     parser is allowed to REJECT inputs the stdlib tolerates, e.g. nesting
//     past maxNestingDepth; the corpus tests pin completeness for realistic
//     bodies.)
//  2. Totality: hostile input produces a typed error, never a panic, and
//     never an allocation proportional to a declared-but-absent length.
//
// `go test` runs every seed below on each CI run; `go test -fuzz=FuzzX`
// explores further locally.

func FuzzParseClassify(f *testing.F) {
	for _, seed := range []string{
		`{"samples":[1,2,3]}`,
		`{"model":"default@v1","samples":[-1,0,2047]}`,
		`{"Samples":null,"MODEL":"x"}`,
		`{"model":"😀\n<&>","samples":[1],"samples":[2]}`,
		`{"unknown":{"a":[1.5e9,true,null,"s"]},"samples":[7]}`,
		` { } `,
		`null`,
		`{"samples":[2147483647,-2147483648]}`,
		`{"samples":[21474836470]}`,
		`{"samples":[0`,
		"{\"samples\":[1],\"\xff\xfe\":2}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		model, samples, err := ParseClassify(nil, data)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("rejection is not a *SyntaxError: %v", err)
			}
			return
		}
		wantModel, wantSamples, stdErr := stdClassify(data)
		if stdErr != nil {
			t.Fatalf("fast accepted %q but stdlib rejects it: %v", data, stdErr)
		}
		if model != wantModel || !sameSamples(samples, wantSamples) {
			t.Fatalf("%q: fast (%q, %v) != stdlib (%q, %v)",
				data, model, samples, wantModel, wantSamples)
		}
	})
}

func FuzzParseChunk(f *testing.F) {
	for _, seed := range []string{
		`{"samples":[1017,1020,1013]}`,
		`{"samples":[]}`,
		`{"samples":null}`,
		`{"sAmPlEs":[1],"x":"y"}`,
		`{"samples":[01]}`,
		`{"samples":[ 1 , -2 ]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := ParseChunk(nil, data)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("rejection is not a *SyntaxError: %v", err)
			}
			return
		}
		var want chunkBody
		if stdErr := json.Unmarshal(data, &want); stdErr != nil {
			t.Fatalf("fast accepted %q but stdlib rejects it: %v", data, stdErr)
		}
		if !sameSamples(samples, want.Samples) {
			t.Fatalf("%q: fast %v != stdlib %v", data, samples, want.Samples)
		}
	})
}

func FuzzDecodeFrame(f *testing.F) {
	valid, _ := AppendFrame(nil, []int32{1000, 1010, 990, -40000, 1 << 20})
	delta, _ := AppendFrameWidth(nil, []int32{1000, 1001, 999}, 1)
	wide, _ := AppendFrameWidth(nil, []int32{1, 2, 3}, 4)
	f.Add(valid)
	f.Add(delta)
	f.Add(wide)
	f.Add(append(append([]byte{}, valid...), valid...)) // two frames
	f.Add([]byte("RPBS"))
	f.Add([]byte("RPBS\x01\x01\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Byte-slice decoder: must return a typed error or consume a
		// well-formed prefix — and never panic or over-read.
		dec, rest, err := DecodeFrame(nil, data)
		if err != nil {
			var fe *FrameError
			if !errors.As(err, &fe) && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("rejection is not typed: %v", err)
			}
		} else {
			if len(rest) > len(data) {
				t.Fatalf("rest grew: %d > %d", len(rest), len(data))
			}
			// A decoded frame must re-encode to the same sample values.
			re, encErr := AppendFrame(nil, dec)
			if encErr != nil {
				t.Fatalf("re-encode failed: %v", encErr)
			}
			back, _, decErr := DecodeFrame(nil, re)
			if decErr != nil || !sameSamples(back, dec) {
				t.Fatalf("re-encode round trip broke: %v", decErr)
			}
		}

		// The uplink reader must agree with the byte-slice decoder on the
		// first frame.
		_, rdec, rerr := NewUplinkReader(bytes.NewReader(data), true).Next()
		if err == nil {
			if rerr != nil {
				t.Fatalf("slice decoder accepted, reader rejected: %v", rerr)
			}
			if !sameSamples(rdec, dec) {
				t.Fatal("slice and reader decoders disagree")
			}
		} else if rerr == nil {
			t.Fatal("slice decoder rejected, reader accepted")
		} else if len(data) == 0 && rerr != io.EOF {
			t.Fatalf("empty stream: reader err = %v, want io.EOF", rerr)
		}
	})
}

// FuzzUplinkReader holds the /v1/stream framing to its contract in both
// encodings: units never depend on how the body's bytes are split across
// reads; the accepted units, the bytes handed back with the error and the
// rest the reader passes through add up to the body exactly; every unit
// decodes to its samples by the reference decoder; and a body that cannot
// fail ends with io.EOF or a typed rejection only.
func FuzzUplinkReader(f *testing.F) {
	frames, _ := AppendFrame(nil, []int32{1000, 1010, 990, -40000, 1 << 20})
	f.Add(frames, true, uint8(0))
	f.Add(append(append([]byte{}, frames...), frames[:13]...), true, uint8(3))
	f.Add([]byte("RPBS\x01\x01\xff\xff\xff\xff"), true, uint8(1))
	f.Add([]byte("{\"samples\":[1,2]}\n\r\n\n{\"samples\":[3]}\r\n{\"samples\":[4]}"), false, uint8(0))
	f.Add([]byte("{\"samples\":[1]}\n{nope}\n{\"samples\":[2]}\n"), false, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, binary bool, split uint8) {
		whole := readUplink(t, bytes.NewReader(data), binary)
		pieces := readUplink(t, &splitReader{data: data, n: int(split) + 1}, binary)
		if whole.err != io.EOF && !Malformed(whole.err) {
			t.Fatalf("ended with an untyped error: %v", whole.err)
		}
		if pieces.err.Error() != whole.err.Error() {
			t.Fatalf("read in pieces of %d ends with %v, whole with %v", split+1, pieces.err, whole.err)
		}
		if len(pieces.units) != len(whole.units) || !bytes.Equal(pieces.consumed(), whole.consumed()) ||
			!bytes.Equal(pieces.rest, whole.rest) {
			t.Fatalf("read in pieces of %d: %d units %q, whole: %d units %q",
				split+1, len(pieces.units), pieces.consumed(), len(whole.units), whole.consumed())
		}
		if got := append(whole.consumed(), whole.rest...); !bytes.Equal(got, data) {
			t.Fatalf("units, bad bytes and rest %q are not the body %q", got, data)
		}
		checkUnits(t, whole, binary)
	})
}

// splitReader serves data n bytes per Read.
type splitReader struct {
	data []byte
	n    int
}

func (s *splitReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), s.n)], s.data)
	s.data = s.data[n:]
	return n, nil
}
