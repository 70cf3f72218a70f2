package wfdb

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rpbeat/internal/rng"
)

func TestEncode212RoundTrip(t *testing.T) {
	signals := [][]int32{
		{0, 1, -1, 2047, -2048, 100},
		{5, -5, 1000, -1000, 0, 42},
	}
	data, err := Encode212(signals)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode212(data, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	for s := range signals {
		for i := range signals[s] {
			if got[s][i] != signals[s][i] {
				t.Fatalf("signal %d sample %d: got %d want %d", s, i, got[s][i], signals[s][i])
			}
		}
	}
}

func TestEncode212OddSampleCount(t *testing.T) {
	signals := [][]int32{{1, 2, 3}} // 3 samples, odd
	data, err := Encode212(signals)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 6 { // two pairs of 3 bytes
		t.Fatalf("data length %d, want 6", len(data))
	}
	got, err := Decode212(data, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int32{1, 2, 3} {
		if got[0][i] != want {
			t.Fatalf("sample %d: got %d want %d", i, got[0][i], want)
		}
	}
}

func TestEncode212RangeCheck(t *testing.T) {
	if _, err := Encode212([][]int32{{2048}}); err == nil {
		t.Fatal("2048 should exceed 12-bit range")
	}
	if _, err := Encode212([][]int32{{-2049}}); err == nil {
		t.Fatal("-2049 should exceed 12-bit range")
	}
	if _, err := Encode212(nil); err == nil {
		t.Fatal("no signals should be an error")
	}
	if _, err := Encode212([][]int32{{1, 2}, {1}}); err == nil {
		t.Fatal("mismatched lengths should be an error")
	}
}

func TestEncode212PropertyRoundTrip(t *testing.T) {
	r := rng.New(1)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		nsig := 1 + rr.Intn(3)
		nsamp := 1 + rr.Intn(200)
		signals := make([][]int32, nsig)
		for s := range signals {
			signals[s] = make([]int32, nsamp)
			for i := range signals[s] {
				signals[s][i] = int32(rr.Intn(4096)) - 2048
			}
		}
		data, err := Encode212(signals)
		if err != nil {
			return false
		}
		got, err := Decode212(data, nsig, nsamp)
		if err != nil {
			return false
		}
		for s := range signals {
			for i := range signals[s] {
				if got[s][i] != signals[s][i] {
					return false
				}
			}
		}
		return true
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecode212Truncated(t *testing.T) {
	if _, err := Decode212([]byte{1, 2}, 1, 2); err == nil {
		t.Fatal("truncated data should error")
	}
	if _, err := Decode212(nil, 0, 10); err == nil {
		t.Fatal("nsig=0 should error")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Record: "s100", Fs: 360, NumSamples: 650000,
		Signals: []SignalSpec{
			{FileName: "s100.dat", Format: 212, Gain: 200, ADCRes: 11, ADCZero: 1024, InitValue: 995, Checksum: -22131, Description: "MLII"},
			{FileName: "s100.dat", Format: 212, Gain: 200, ADCRes: 11, ADCZero: 1024, InitValue: 1011, Checksum: 20052, Description: "V5"},
		},
	}
	text := FormatHeader(h)
	got, err := ParseHeader(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got.Record != h.Record || got.Fs != h.Fs || got.NumSamples != h.NumSamples {
		t.Fatalf("record line mismatch: %+v", got)
	}
	if len(got.Signals) != 2 {
		t.Fatalf("got %d signals", len(got.Signals))
	}
	for i := range h.Signals {
		a, b := got.Signals[i], h.Signals[i]
		if a.FileName != b.FileName || a.Format != b.Format || a.Gain != b.Gain ||
			a.ADCRes != b.ADCRes || a.ADCZero != b.ADCZero || a.InitValue != b.InitValue ||
			a.Checksum != b.Checksum || a.Description != b.Description {
			t.Fatalf("signal %d mismatch:\n got %+v\nwant %+v", i, a, b)
		}
	}
}

func TestParseHeaderRealWorldShape(t *testing.T) {
	// Shape taken from the published MIT-BIH 100.hea.
	text := "100 2 360 650000\n100.dat 212 200 11 1024 995 -22131 0 MLII\n100.dat 212 200 11 1024 1011 20052 0 V5\n"
	h, err := ParseHeader(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if h.Record != "100" || h.Fs != 360 || h.NumSamples != 650000 || len(h.Signals) != 2 {
		t.Fatalf("parsed %+v", h)
	}
	if h.Signals[0].Description != "MLII" {
		t.Fatalf("description %q", h.Signals[0].Description)
	}
}

func TestParseHeaderErrors(t *testing.T) {
	cases := []string{
		"",
		"100\n",
		"100 x 360 650000\n",
		"100 1 360 650000\nfile.dat 212\n",
	}
	for _, c := range cases {
		if _, err := ParseHeader(strings.NewReader(c)); err == nil {
			t.Fatalf("header %q should fail to parse", c)
		}
	}
}

func TestAnnotationsRoundTrip(t *testing.T) {
	anns := []Ann{
		{Sample: 18, Code: CodeNormal},
		{Sample: 400, Code: CodeLBBB},
		{Sample: 1500, Code: CodePVC}, // forces >1023 delta
		{Sample: 999999, Code: CodeNormal},
		{Sample: 1000100, Code: CodePVC, Sub: 3, Chan: 1, Num: 2, Aux: "(VT"},
	}
	data, err := EncodeAnnotations(anns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAnnotations(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(anns) {
		t.Fatalf("got %d annotations, want %d", len(got), len(anns))
	}
	for i := range anns {
		if got[i] != anns[i] {
			t.Fatalf("annotation %d: got %+v want %+v", i, got[i], anns[i])
		}
	}
}

func TestAnnotationsPropertyRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(100)
		anns := make([]Ann, n)
		t0 := 0
		codes := []byte{CodeNormal, CodeLBBB, CodePVC, 3} // 3: R, right bundle branch block
		for i := range anns {
			t0 += r.Intn(5000) // sometimes > 1023 to exercise SKIP
			anns[i] = Ann{Sample: t0, Code: codes[r.Intn(len(codes))]}
		}
		data, err := EncodeAnnotations(anns)
		if err != nil {
			return false
		}
		got, err := DecodeAnnotations(data)
		if err != nil || len(got) != len(anns) {
			return false
		}
		for i := range anns {
			if got[i] != anns[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAnnotationsRejectUnsorted(t *testing.T) {
	if _, err := EncodeAnnotations([]Ann{{Sample: 100, Code: 1}, {Sample: 50, Code: 1}}); err == nil {
		t.Fatal("unsorted annotations should error")
	}
}

func TestAnnotationsRejectReservedCodes(t *testing.T) {
	for _, code := range []byte{0, codeSkip, codeAux} {
		if _, err := EncodeAnnotations([]Ann{{Sample: 1, Code: code}}); err == nil {
			t.Fatalf("code %d should be rejected", code)
		}
	}
}

func TestDecodeAnnotationsTruncated(t *testing.T) {
	if _, err := DecodeAnnotations([]byte{0x01}); err == nil {
		t.Fatal("odd-length stream should error")
	}
	// SKIP word without its 4-byte interval:
	w := uint16(codeSkip) << 10
	if _, err := DecodeAnnotations([]byte{byte(w), byte(w >> 8)}); err == nil {
		t.Fatal("truncated SKIP should error")
	}
}

func TestSaveLoadRecord(t *testing.T) {
	dir := t.TempDir()
	r := rng.New(7)
	n := 5000
	rec := &Record{
		Name: "s999", Fs: 360, Gain: 200, ADCZero: 1024,
		Descriptions: []string{"MLII", "V1", "V5"},
	}
	for s := 0; s < 3; s++ {
		sig := make([]int32, n)
		for i := range sig {
			sig[i] = int32(1024 + 200*math.Sin(float64(i)/20+float64(s)))
		}
		rec.Signals = append(rec.Signals, sig)
	}
	t0 := 0
	for i := 0; i < 20; i++ {
		t0 += 200 + r.Intn(100)
		rec.Ann = append(rec.Ann, Ann{Sample: t0, Code: CodeNormal})
	}
	if err := Save(dir, rec); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, "s999")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != rec.Name || got.Fs != rec.Fs || got.Gain != rec.Gain || got.ADCZero != rec.ADCZero {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if len(got.Signals) != 3 {
		t.Fatalf("got %d signals", len(got.Signals))
	}
	for s := range rec.Signals {
		for i := range rec.Signals[s] {
			if got.Signals[s][i] != rec.Signals[s][i] {
				t.Fatalf("signal %d sample %d mismatch", s, i)
			}
		}
	}
	if len(got.Ann) != len(rec.Ann) {
		t.Fatalf("got %d annotations, want %d", len(got.Ann), len(rec.Ann))
	}
	for i := range rec.Ann {
		if got.Ann[i] != rec.Ann[i] {
			t.Fatalf("annotation %d mismatch", i)
		}
	}
	if got.Descriptions[0] != "MLII" || got.Descriptions[2] != "V5" {
		t.Fatalf("descriptions: %v", got.Descriptions)
	}
}

func TestLoadMissingRecord(t *testing.T) {
	if _, err := Load(t.TempDir(), "nope"); err == nil {
		t.Fatal("loading a missing record should error")
	}
}

func TestLoadWithoutAnnotations(t *testing.T) {
	dir := t.TempDir()
	rec := &Record{Name: "s1", Fs: 360, Gain: 200, ADCZero: 1024,
		Signals: [][]int32{{1, 2, 3, 4}}}
	if err := Save(dir, rec); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, "s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ann) != 0 {
		t.Fatalf("expected no annotations, got %d", len(got.Ann))
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	rec := &Record{Name: "s2", Fs: 360, Gain: 200, ADCZero: 1024,
		Signals: [][]int32{{10, 20, 30, 40, 50, 60}}}
	if err := Save(dir, rec); err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte of the .dat file.
	path := dir + "/s2.dat"
	data, err := osReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := osWriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, "s2"); err == nil {
		t.Fatal("corrupted signal file should fail checksum verification")
	}
}

func BenchmarkEncode212(b *testing.B) {
	sig := make([]int32, 360*60*3)
	for i := range sig {
		sig[i] = int32(i % 2048)
	}
	signals := [][]int32{sig}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode212(signals); err != nil {
			b.Fatal(err)
		}
	}
}
