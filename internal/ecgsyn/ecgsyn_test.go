package ecgsyn

import (
	"math"
	"slices"
	"testing"

	"rpbeat/internal/rng"
)

func TestClassString(t *testing.T) {
	if ClassN.String() != "N" || ClassL.String() != "L" || ClassV.String() != "V" {
		t.Fatal("class mnemonics wrong")
	}
	if Class(9).String() == "" {
		t.Fatal("unknown class should still format")
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	for _, mv := range []float64{0, 0.5, -0.5, 1.0, -1.0, 2.5} {
		adc := Quantize(mv)
		back := ToMillivolts(adc)
		if math.Abs(back-mv) > 1.0/Gain {
			t.Fatalf("mv %v -> adc %d -> %v: error too large", mv, adc, back)
		}
	}
}

// TestToMillivoltsMonotone holds the count→millivolt map to what an
// extremum taken on counts rests on: it rises strictly over all of int32,
// across the wrap an int32 difference from Baseline had below
// MinInt32+1024, and it maps Baseline to +0, never −0. Wherever that
// difference did not wrap, the bits are the ones it gave.
func TestToMillivoltsMonotone(t *testing.T) {
	counts := []int32{math.MinInt32, math.MinInt32 + 1023, math.MinInt32 + 1024, -1, 0, 1024, 2047, math.MaxInt32}
	r := rng.New(17)
	for range 4096 {
		counts = append(counts, int32(r.Uint64()))
	}
	slices.Sort(counts)
	for i, c := range counts {
		if c >= math.MinInt32+1024 {
			if got, want := ToMillivolts(c), float64(c-Baseline)/Gain; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("ToMillivolts(%d) = %v, the int32 difference gave %v", c, got, want)
			}
		}
		if i == 0 || c == counts[i-1] {
			continue
		}
		if lo, hi := ToMillivolts(counts[i-1]), ToMillivolts(c); !(lo < hi) {
			t.Fatalf("ToMillivolts(%d) = %v, not below ToMillivolts(%d) = %v", counts[i-1], lo, c, hi)
		}
	}
	if v := ToMillivolts(Baseline); math.Float64bits(v) != 0 {
		t.Fatalf("ToMillivolts(Baseline) = %v, want +0", v)
	}
}

// TestToMillivoltsTable holds the 11-bit table to the expression, by bits,
// at every count.
func TestToMillivoltsTable(t *testing.T) {
	for c := int32(0); c <= ADCMax; c++ {
		if got, want := ToMillivolts(c), (float64(c)-Baseline)/Gain; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ToMillivolts(%d) = %v from the table, %v from the expression", c, got, want)
		}
	}
}

func TestQuantizeClips(t *testing.T) {
	if Quantize(100) != ADCMax {
		t.Fatalf("positive clip: %d", Quantize(100))
	}
	if Quantize(-100) != 0 {
		t.Fatalf("negative clip: %d", Quantize(-100))
	}
}

func TestBeatWindowLength(t *testing.T) {
	s := NewSubject(rng.New(1), DefaultVariability())
	b := s.Beat(ClassN, 100, 100)
	if len(b) != 200 {
		t.Fatalf("beat window length %d, want 200", len(b))
	}
}

func TestBeatPeakNearCenter(t *testing.T) {
	v := DefaultVariability()
	v.NoiseSDMin, v.NoiseSDMax = 0.001, 0.002 // nearly clean
	v.WanderAmpMax, v.MainsAmpMax, v.ArtifactProb = 0, 0, 0
	s := NewSubject(rng.New(2), v)
	for i := 0; i < 20; i++ {
		b := s.Beat(ClassN, 100, 100)
		// find max |deviation from baseline|
		best, bestAbs := 0, int32(0)
		for j, x := range b {
			d := x - Baseline
			if d < 0 {
				d = -d
			}
			if d > bestAbs {
				bestAbs, best = d, j
			}
		}
		if best < 90 || best > 110 {
			t.Fatalf("beat %d: peak at sample %d, want near 100", i, best)
		}
	}
}

func TestBeatClassesDiffer(t *testing.T) {
	v := DefaultVariability()
	v.NoiseSDMin, v.NoiseSDMax = 0.001, 0.002
	v.WanderAmpMax, v.MainsAmpMax, v.ArtifactProb = 0, 0, 0
	s := NewSubject(rng.New(3), v)
	mean := func(c Class) []float64 {
		acc := make([]float64, 200)
		const reps = 30
		for i := 0; i < reps; i++ {
			b := s.Beat(c, 100, 100)
			for j, x := range b {
				acc[j] += ToMillivolts(x) / reps
			}
		}
		return acc
	}
	mN, mL, mV := mean(ClassN), mean(ClassL), mean(ClassV)
	dist := func(a, b []float64) float64 {
		var d float64
		for i := range a {
			d += (a[i] - b[i]) * (a[i] - b[i])
		}
		return math.Sqrt(d)
	}
	if dist(mN, mV) < 1.0 {
		t.Fatalf("N and V templates too close: %v", dist(mN, mV))
	}
	if dist(mN, mL) < 1.0 {
		t.Fatalf("N and L templates too close: %v", dist(mN, mL))
	}
	if dist(mL, mV) < 0.5 {
		t.Fatalf("L and V templates too close: %v", dist(mL, mV))
	}
}

func TestVBeatHasNoPWave(t *testing.T) {
	s := NewSubject(rng.New(4), DefaultVariability())
	for _, b := range s.Templates[ClassV].Bumps {
		if b.Kind == WaveP {
			t.Fatal("PVC template must not contain a P wave")
		}
	}
}

func TestSubjectsDiffer(t *testing.T) {
	a := NewSubject(rng.New(10), DefaultVariability())
	b := NewSubject(rng.New(11), DefaultVariability())
	if a.Templates[ClassN].Bumps[2].Amp == b.Templates[ClassN].Bumps[2].Amp {
		t.Fatal("two subjects drew identical R amplitude")
	}
}

func TestSubjectDeterministic(t *testing.T) {
	a := NewSubject(rng.New(10), DefaultVariability())
	b := NewSubject(rng.New(10), DefaultVariability())
	for c := Class(0); c < NumClasses; c++ {
		for i := range a.Templates[c].Bumps {
			if a.Templates[c].Bumps[i] != b.Templates[c].Bumps[i] {
				t.Fatal("same seed produced different subjects")
			}
		}
	}
}

func TestSynthesizeRecordBasics(t *testing.T) {
	rec := Synthesize(RecordSpec{Name: "t100", Seconds: 30, PVCRate: 0.1, Seed: 5})
	if rec.Duration() < 29.9 || rec.Duration() > 30.1 {
		t.Fatalf("duration %v, want 30 s", rec.Duration())
	}
	if len(rec.Ann) < 25 || len(rec.Ann) > 55 {
		t.Fatalf("got %d beats in 30 s, want a physiological count", len(rec.Ann))
	}
	if len(rec.Truth) != len(rec.Ann) {
		t.Fatalf("fiducials not parallel to annotations: %d vs %d", len(rec.Truth), len(rec.Ann))
	}
	for l := 0; l < NumLeads; l++ {
		if len(rec.Leads[l]) != len(rec.Leads[0]) {
			t.Fatal("leads have different lengths")
		}
	}
	// Annotations strictly increasing.
	for i := 1; i < len(rec.Ann); i++ {
		if rec.Ann[i].Sample <= rec.Ann[i-1].Sample {
			t.Fatalf("annotations not increasing at %d", i)
		}
	}
}

func TestSynthesizePVCRate(t *testing.T) {
	rec := Synthesize(RecordSpec{Name: "t200", Seconds: 300, PVCRate: 0.15, Seed: 6})
	var v, total int
	for _, a := range rec.Ann {
		total++
		if a.Class == ClassV {
			v++
		}
	}
	frac := float64(v) / float64(total)
	if frac < 0.07 || frac > 0.25 {
		t.Fatalf("PVC fraction %.3f, want near 0.15", frac)
	}
}

func TestSynthesizeLBBBRecordUsesLBeats(t *testing.T) {
	rec := Synthesize(RecordSpec{Name: "t109", Seconds: 60, LBBB: true, Seed: 7})
	for i, a := range rec.Ann {
		if a.Class == ClassN {
			t.Fatalf("beat %d is N in an LBBB record", i)
		}
	}
}

func TestRecordPeaksAlignWithAnnotations(t *testing.T) {
	var v = DefaultVariability()
	v.NoiseSDMin, v.NoiseSDMax = 0.001, 0.002
	v.WanderAmpMax, v.MainsAmpMax, v.ArtifactProb = 0, 0, 0
	rec := Synthesize(RecordSpec{Name: "tq", Seconds: 20, Seed: 8, Var: &v})
	for _, a := range rec.Ann {
		if a.Sample < 40 || a.Sample > len(rec.Leads[0])-40 {
			continue
		}
		// The annotated sample should be within a few samples of the local
		// extremum of lead 0.
		best, bestAbs := a.Sample, int32(-1)
		for j := a.Sample - 15; j <= a.Sample+15; j++ {
			d := rec.Leads[0][j] - Baseline
			if d < 0 {
				d = -d
			}
			if d > bestAbs {
				bestAbs, best = d, j
			}
		}
		if diff := best - a.Sample; diff < -5 || diff > 5 {
			t.Fatalf("annotation at %d but extremum at %d", a.Sample, best)
		}
	}
}

func TestCompensatoryPauseAfterPVC(t *testing.T) {
	rec := Synthesize(RecordSpec{Name: "tp", Seconds: 300, PVCRate: 0.10, Seed: 9})
	// Find PVCs with a neighbor on both sides and check RR(after) > RR(before).
	checked := 0
	for i := 1; i < len(rec.Ann)-1; i++ {
		if rec.Ann[i].Class != ClassV {
			continue
		}
		before := rec.Ann[i].Sample - rec.Ann[i-1].Sample
		after := rec.Ann[i+1].Sample - rec.Ann[i].Sample
		if after <= before {
			t.Fatalf("PVC %d: pause %d not longer than coupling %d", i, after, before)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no PVCs generated")
	}
}

func TestFiducialOrdering(t *testing.T) {
	rec := Synthesize(RecordSpec{Name: "tf", Seconds: 60, PVCRate: 0.08, Seed: 10})
	for i, f := range rec.Truth {
		if f.QRSOn >= f.RPeak || f.RPeak >= f.QRSOff {
			t.Fatalf("beat %d: QRS fiducials out of order: %+v", i, f)
		}
		if f.POn != -1 && !(f.POn < f.PPeak && f.PPeak < f.POff && f.POff <= f.QRSOn+3) {
			t.Fatalf("beat %d: P fiducials out of order: %+v", i, f)
		}
		if f.TOn != -1 && !(f.TOn < f.TPeak && f.TPeak < f.TOff && f.TOn >= f.QRSOn) {
			t.Fatalf("beat %d: T fiducials out of order: %+v", i, f)
		}
		if rec.Ann[i].Class == ClassV && f.POn != -1 {
			t.Fatalf("beat %d: PVC has P-wave fiducials", i)
		}
	}
}

func TestADCRangeRespected(t *testing.T) {
	rec := Synthesize(RecordSpec{Name: "tr", Seconds: 30, Seed: 11})
	for l := 0; l < NumLeads; l++ {
		for i, v := range rec.Leads[l] {
			if v < 0 || v > ADCMax {
				t.Fatalf("lead %d sample %d = %d outside 11-bit range", l, i, v)
			}
		}
	}
}

func BenchmarkBeat(b *testing.B) {
	s := NewSubject(rng.New(1), DefaultVariability())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Beat(ClassN, 100, 100)
	}
}

func BenchmarkSynthesize30s(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Synthesize(RecordSpec{Name: "b", Seconds: 30, PVCRate: 0.05, Seed: uint64(i)})
	}
}
