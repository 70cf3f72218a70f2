package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"
	"testing/iotest"

	"rpbeat/internal/testutil"
)

// uplinkRead is everything one UplinkReader pass over a body produced.
type uplinkRead struct {
	units   [][]byte  // verbatim bytes of each unit Next accepted
	samples [][]int32 // their decoded samples
	bad     []byte    // raw bytes handed back with the final error
	err     error     // what ended the pass: io.EOF, a Malformed error or r's
	rest    []byte    // the reader's Read after a Malformed error
}

// readUplink runs one UplinkReader over r to its first error.
func readUplink(t testing.TB, r io.Reader, binary bool) uplinkRead {
	t.Helper()
	ur := NewUplinkReader(r, binary)
	var out uplinkRead
	for {
		raw, samples, err := ur.Next()
		if err != nil {
			out.bad, out.err = bytes.Clone(raw), err
			if Malformed(err) {
				out.rest, _ = io.ReadAll(ur)
			}
			return out
		}
		out.units = append(out.units, bytes.Clone(raw))
		out.samples = append(out.samples, append([]int32{}, samples...))
	}
}

// consumed is every byte the pass took from the body, in order.
func (u uplinkRead) consumed() []byte {
	return append(bytes.Join(u.units, nil), u.bad...)
}

// checkUnits holds each accepted unit to the reference decoders: a frame
// decodes by DecodeFrame to exactly its samples and nothing more; a line
// holds one newline at most, at its end, and its text less "\r\n" parses by
// ParseChunk to exactly its samples (a blank line to none).
func checkUnits(t testing.TB, got uplinkRead, binary bool) {
	t.Helper()
	for i, raw := range got.units {
		var want []int32
		if binary {
			dec, rest, err := DecodeFrame(nil, raw)
			if err != nil || len(rest) != 0 {
				t.Fatalf("unit %d %q is not one whole frame: %v, %d bytes left", i, raw, err, len(rest))
			}
			want = dec
		} else {
			text := bytes.TrimSuffix(raw, []byte("\n"))
			if bytes.IndexByte(text, '\n') >= 0 {
				t.Fatalf("unit %d %q holds more than one line", i, raw)
			}
			if len(text) == len(raw) && i < len(got.units)-1 {
				t.Fatalf("unit %d %q has no newline but is not the last", i, raw)
			}
			text = bytes.TrimSuffix(text, []byte("\r"))
			if len(text) > 0 {
				dec, err := ParseChunk(nil, text)
				if err != nil {
					t.Fatalf("unit %d %q accepted, but ParseChunk rejects it: %v", i, raw, err)
				}
				want = dec
			}
		}
		if !sameSamples(got.samples[i], want) {
			t.Fatalf("unit %d %q: %d samples %v, decoded %d samples %v",
				i, raw, len(got.samples[i]), got.samples[i], len(want), want)
		}
	}
}

// failAfter serves data, then fails with err in place of io.EOF: a client
// that disconnects mid-upload.
type failAfter struct {
	r   io.Reader
	err error
}

func (f *failAfter) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		err = f.err
	}
	return n, err
}

var errDisconnect = errors.New("client disconnected")

type uplinkCase struct {
	name   string
	binary bool
	body   string
	tail   error  // what the body ends with: nil means io.EOF
	units  int    // units Next accepts
	end    string // "eof", "frame", "too large", "syntax", "line", "disconnect"
	bad    int    // raw bytes handed back with the end
	huge   bool   // too big to feed one byte at a time
}

func mustFrames(t *testing.T, chunks ...[]int32) []byte {
	t.Helper()
	var out []byte
	for _, c := range chunks {
		var err error
		if out, err = AppendFrame(out, c); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestUplinkReaderUnits drives the one /v1/stream framing over both
// encodings, delivered whole and one byte per Read: every unit's bytes are
// the body's, in order, up to the failure; every unit's samples are its
// reference decode; and each kind of end comes back with its typed error.
func TestUplinkReaderUnits(t *testing.T) {
	first := mustFrames(t, []int32{1000, 1010, 990})
	frames := append(first, mustFrames(t, []int32{}, []int32{-40000, 1 << 20}, []int32{5})...)
	oversized := append([]byte("RPBS\x01\x04\xff\xff\xff\xff"), frames...)
	good := `{"samples":[1,2]}`
	// A line of exactly MaxLineBytes, newline included, is accepted; one
	// byte more is not.
	longest := good + string(bytes.Repeat([]byte(" "), MaxLineBytes-len(good)-1)) + "\n"
	tooLong := " " + longest

	cases := []uplinkCase{
		{name: "lines", body: good + "\n" + good + "\n", units: 2, end: "eof"},
		{name: "blank and CRLF lines", body: "\n" + good + "\r\n\r\n\n" + `{"samples":[]}` + "\r\n" + good + "\n", units: 6, end: "eof"},
		{name: "final line without newline, then EOF", body: good + "\n" + good, units: 2, end: "eof"},
		{name: "final CRLF line without newline, then EOF", body: good + "\r", units: 1, end: "eof"},
		{name: "final line without newline, then disconnect", body: good + "\n" + good, tail: errDisconnect, units: 2, end: "disconnect"},
		{name: "disconnect after a whole line", body: good + "\n", tail: errDisconnect, units: 1, end: "disconnect"},
		{name: "bad line after good ones", body: good + "\n" + good + "\n{nope}\n" + good + "\n", units: 2, end: "syntax", bad: 7},
		{name: "bad final line, then disconnect", body: good + "\n" + `{"samples":[1,`, tail: errDisconnect, units: 1, end: "syntax", bad: 14},
		{name: "line at the bound", body: longest + good, units: 2, end: "eof", huge: true},
		{name: "line over the bound", body: good + "\n" + tooLong + good + "\n", units: 1, end: "line", bad: MaxLineBytes, huge: true},
		{name: "frames", binary: true, body: string(frames), units: 4, end: "eof"},
		{name: "empty body", binary: true, body: "", end: "eof"},
		{name: "oversized frame header", binary: true, body: string(first) + string(oversized), units: 1, end: "too large", bad: FrameHeaderLen},
		{name: "bad magic", binary: true, body: "XXXX" + string(frames[4:]), end: "frame", bad: FrameHeaderLen},
		{name: "disconnect at a frame boundary", binary: true, body: string(frames), tail: errDisconnect, units: 4, end: "disconnect"},
	}
	// A frame torn at every byte boundary: whole frames before the cut are
	// units, the torn one comes back truncated at EOF and as the transport
	// error on a disconnect, with its bytes either way.
	ends := []int{0} // frame boundaries
	for rest := frames; len(rest) > 0; ends = append(ends, len(frames)-len(rest)) {
		_, rest, _ = DecodeFrame(nil, rest)
	}
	for cut, units := 1, 0; cut < len(frames); cut++ {
		if cut == ends[units+1] {
			units++
			continue
		}
		torn := string(frames[:cut])
		cases = append(cases,
			uplinkCase{name: "torn frame, then EOF", binary: true, body: torn, units: units, end: "frame", bad: cut - ends[units]},
			uplinkCase{name: "torn frame, then disconnect", binary: true, body: torn, tail: errDisconnect, units: units, end: "disconnect", bad: cut - ends[units]},
		)
	}

	for _, c := range cases {
		feeds := map[string]func(io.Reader) io.Reader{
			"whole":    func(r io.Reader) io.Reader { return r },
			"one byte": iotest.OneByteReader,
		}
		if c.huge {
			delete(feeds, "one byte")
		}
		for feed, wrap := range feeds {
			var body io.Reader = bytes.NewReader([]byte(c.body))
			if c.tail != nil {
				body = &failAfter{r: body, err: c.tail}
			}
			got := readUplink(t, wrap(body), c.binary)
			where := c.name + " (" + feed + ")"
			if len(got.units) != c.units {
				t.Fatalf("%s: %d units, want %d (end %v)", where, len(got.units), c.units, got.err)
			}
			checkUnits(t, got, c.binary)
			if len(got.bad) != c.bad {
				t.Fatalf("%s: %d bytes handed back with %v, want %d", where, len(got.bad), got.err, c.bad)
			}
			if consumed := got.consumed(); !bytes.Equal(append(consumed, got.rest...), []byte(c.body)) {
				t.Fatalf("%s: units, bad bytes and rest are not the body\ngot  %q\nwant %q",
					where, append(consumed, got.rest...), c.body)
			}
			var fe *FrameError
			var se *SyntaxError
			var ok bool
			switch c.end {
			case "eof":
				ok = got.err == io.EOF
			case "frame":
				ok = errors.As(got.err, &fe)
			case "too large":
				ok = errors.Is(got.err, ErrFrameTooLarge)
			case "syntax":
				ok = errors.As(got.err, &se)
			case "line":
				ok = errors.Is(got.err, ErrLineTooLong)
			case "disconnect":
				ok = got.err == errDisconnect
			}
			if !ok {
				t.Fatalf("%s: ended with %v, want %s", where, got.err, c.end)
			}
			if Malformed(got.err) != (c.end != "eof" && c.end != "disconnect") {
				t.Fatalf("%s: Malformed(%v) = %v", where, got.err, Malformed(got.err))
			}
		}
	}
}

// TestUplinkReaderZeroAlloc: reading a unit into warm buffers allocates
// nothing, in either encoding — the per-chunk invariant of the stream
// handler and of the gateway's journal pump.
func TestUplinkReaderZeroAlloc(t *testing.T) {
	chunk := make([]int32, 360)
	for i := range chunk {
		chunk[i] = 1000 + int32(i%40)
	}
	frame := mustFrames(t, chunk)
	line, err := json.Marshal(chunkBody{Samples: chunk})
	if err != nil {
		t.Fatal(err)
	}
	line = append(line, '\n')
	for _, c := range []struct {
		name   string
		binary bool
		unit   []byte
	}{{"binary", true, frame}, {"ndjson", false, line}} {
		rd := bytes.NewReader(nil)
		ur := NewUplinkReader(rd, c.binary)
		next := func() {
			rd.Reset(c.unit)
			raw, samples, err := ur.Next()
			if err != nil || len(raw) != len(c.unit) || len(samples) != len(chunk) {
				t.Fatalf("%s: unit of %d bytes, %d samples (%v)", c.name, len(raw), len(samples), err)
			}
		}
		next() // warm the buffers
		testutil.AssertZeroAlloc(t, "warm UplinkReader.Next ("+c.name+")", next)
	}
}
