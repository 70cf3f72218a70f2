package delin

import (
	"math"
	"testing"

	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/sigdsp"
)

// quietRecord synthesizes a low-noise record and returns its filtered leads,
// reference peaks, classes and ground-truth fiducials.
func quietRecord(seed uint64, seconds float64, pvcRate float64, lbbb bool) (
	leads [][]float64, peaks []int, classes []ecgsyn.Class, truth []ecgsyn.Fiducials) {
	v := ecgsyn.DefaultVariability()
	v.NoiseSDMin, v.NoiseSDMax = 0.004, 0.008
	v.WanderAmpMax, v.MainsAmpMax, v.ArtifactProb = 0.01, 0, 0
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{
		Name: "d", Seconds: seconds, Seed: seed, PVCRate: pvcRate, LBBB: lbbb, Var: &v,
	})
	cfg := sigdsp.DefaultBaselineConfig(rec.Fs)
	for l := 0; l < ecgsyn.NumLeads; l++ {
		leads = append(leads, sigdsp.FilterECG(rec.LeadMillivolts(l), cfg))
	}
	for i, a := range rec.Ann {
		peaks = append(peaks, a.Sample)
		classes = append(classes, a.Class)
		truth = append(truth, rec.Truth[i])
	}
	return
}

func TestMultiLeadQRSBoundaries(t *testing.T) {
	leads, peaks, _, truth := quietRecord(1, 60, 0, false)
	fids := DelineateMultiLead(leads, peaks, Config{Fs: 360})
	if len(fids) != len(peaks) {
		t.Fatalf("got %d fiducial sets for %d beats", len(fids), len(peaks))
	}
	const tol = 18 // 50 ms
	okOn, okOff, n := 0, 0, 0
	for i, f := range fids {
		if truth[i].QRSOn < 200 || truth[i].QRSOff > len(leads[0])-200 {
			continue // skip boundary beats
		}
		n++
		if f.QRSOn >= 0 && abs(f.QRSOn-truth[i].QRSOn) <= tol {
			okOn++
		}
		if f.QRSOff >= 0 && abs(f.QRSOff-truth[i].QRSOff) <= tol {
			okOff++
		}
	}
	if n == 0 {
		t.Fatal("no beats evaluated")
	}
	if rate := float64(okOn) / float64(n); rate < 0.9 {
		t.Fatalf("QRS onset within 50 ms for only %.1f%% of beats", 100*rate)
	}
	if rate := float64(okOff) / float64(n); rate < 0.9 {
		t.Fatalf("QRS end within 50 ms for only %.1f%% of beats", 100*rate)
	}
}

func TestMultiLeadTWave(t *testing.T) {
	leads, peaks, _, truth := quietRecord(2, 60, 0, false)
	fids := DelineateMultiLead(leads, peaks, Config{Fs: 360})
	const tol = 25 // ~70 ms: T boundaries are soft even for human annotators
	ok, n := 0, 0
	for i, f := range fids {
		if truth[i].TPeak < 0 || truth[i].TOff > len(leads[0])-200 || truth[i].TOn < 200 {
			continue
		}
		n++
		if f.TPeak >= 0 && abs(f.TPeak-truth[i].TPeak) <= tol {
			ok++
		}
	}
	if n == 0 {
		t.Fatal("no T waves evaluated")
	}
	if rate := float64(ok) / float64(n); rate < 0.85 {
		t.Fatalf("T peak within 70 ms for only %.1f%% of beats (%d/%d)", 100*rate, ok, n)
	}
}

func TestPWavePresenceByClass(t *testing.T) {
	leads, peaks, classes, _ := quietRecord(3, 240, 0.15, false)
	fids := DelineateMultiLead(leads, peaks, Config{Fs: 360})
	var pOnN, nN, pOnV, nV int
	for i, f := range fids {
		switch classes[i] {
		case ecgsyn.ClassN:
			nN++
			if f.PPeak >= 0 {
				pOnN++
			}
		case ecgsyn.ClassV:
			nV++
			if f.PPeak >= 0 {
				pOnV++
			}
		}
	}
	if nN == 0 || nV == 0 {
		t.Fatalf("need both N and V beats (%d, %d)", nN, nV)
	}
	if rate := float64(pOnN) / float64(nN); rate < 0.7 {
		t.Fatalf("P wave found on only %.1f%% of N beats", 100*rate)
	}
	if rate := float64(pOnV) / float64(nV); rate > 0.45 {
		t.Fatalf("P wave 'found' on %.1f%% of V beats (should be absent)", 100*rate)
	}
}

func TestSingleLeadAgreesWithTruthOnQRS(t *testing.T) {
	leads, peaks, _, truth := quietRecord(4, 60, 0, false)
	fids := DelineateMultiLead(leads[:1], peaks, Config{Fs: 360})
	const tol = 20
	ok, n := 0, 0
	for i, f := range fids {
		if truth[i].QRSOn < 200 || truth[i].QRSOff > len(leads[0])-200 {
			continue
		}
		n++
		if f.QRSOn >= 0 && abs(f.QRSOn-truth[i].QRSOn) <= tol &&
			f.QRSOff >= 0 && abs(f.QRSOff-truth[i].QRSOff) <= tol {
			ok++
		}
	}
	if rate := float64(ok) / float64(n); rate < 0.85 {
		t.Fatalf("single-lead QRS boundaries within 55 ms for only %.1f%% (%d/%d)", 100*rate, ok, n)
	}
}

func TestLBBBWideQRS(t *testing.T) {
	// Delineated QRS duration for LBBB beats must exceed that of normal
	// beats (the defining feature of the class).
	leadsN, peaksN, _, _ := quietRecord(5, 60, 0, false)
	fidsN := DelineateMultiLead(leadsN, peaksN, Config{Fs: 360})
	leadsL, peaksL, _, _ := quietRecord(6, 60, 0, true)
	fidsL := DelineateMultiLead(leadsL, peaksL, Config{Fs: 360})

	mean := func(fids []Fiducials) float64 {
		var s, n float64
		for _, f := range fids {
			if f.QRSOn >= 0 && f.QRSOff > f.QRSOn {
				s += float64(f.QRSOff - f.QRSOn)
				n++
			}
		}
		return s / math.Max(n, 1)
	}
	durN, durL := mean(fidsN), mean(fidsL)
	if durL <= durN {
		t.Fatalf("LBBB QRS duration %.1f samples not wider than normal %.1f", durL, durN)
	}
}

func TestFiducialOrderingInvariant(t *testing.T) {
	leads, peaks, _, _ := quietRecord(7, 120, 0.1, false)
	fids := DelineateMultiLead(leads, peaks, Config{Fs: 360})
	for i, f := range fids {
		if f.QRSOn >= 0 && f.QRSOff >= 0 && f.QRSOn >= f.QRSOff {
			t.Fatalf("beat %d: QRS onset %d >= end %d", i, f.QRSOn, f.QRSOff)
		}
		if f.POn >= 0 && !(f.POn < f.PPeak && f.PPeak < f.POff) {
			t.Fatalf("beat %d: P fiducials out of order: %+v", i, f)
		}
		if f.TOn >= 0 && !(f.TOn < f.TPeak && f.TPeak < f.TOff) {
			t.Fatalf("beat %d: T fiducials out of order: %+v", i, f)
		}
		if f.POff >= 0 && f.QRSOn >= 0 && f.POff > f.QRSOn+5 {
			t.Fatalf("beat %d: P end %d after QRS onset %d", i, f.POff, f.QRSOn)
		}
	}
}

func TestCountFiducials(t *testing.T) {
	f := Fiducials{POn: -1, PPeak: -1, POff: -1, QRSOn: 10, RPeak: 20, QRSOff: 30, TOn: 40, TPeak: 50, TOff: 60}
	if f.Count() != 6 {
		t.Fatalf("count = %d, want 6", f.Count())
	}
}

func TestDelineateEmptyInputs(t *testing.T) {
	if got := DelineateMultiLead(nil, []int{5}, Config{}); got != nil {
		t.Fatal("no leads should give nil")
	}
	fids := DelineateMultiLead([][]float64{{0, 0, 0}}, []int{-5, 99}, Config{Fs: 360})
	if len(fids) != 2 {
		t.Fatalf("got %d fiducial sets", len(fids))
	}
	if fids[0].RPeak != -1 {
		t.Fatal("out-of-range peak should yield RPeak=-1")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func BenchmarkDelineateMultiLead30s(b *testing.B) {
	leads, peaks, _, _ := quietRecordB(30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DelineateMultiLead(leads, peaks, Config{Fs: 360})
	}
}

func quietRecordB(seconds float64) ([][]float64, []int, []ecgsyn.Class, []ecgsyn.Fiducials) {
	v := ecgsyn.DefaultVariability()
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{Name: "b", Seconds: seconds, Seed: 1, Var: &v})
	cfg := sigdsp.DefaultBaselineConfig(rec.Fs)
	var leads [][]float64
	for l := 0; l < ecgsyn.NumLeads; l++ {
		leads = append(leads, sigdsp.FilterECG(rec.LeadMillivolts(l), cfg))
	}
	var peaks []int
	for _, a := range rec.Ann {
		peaks = append(peaks, a.Sample)
	}
	return leads, peaks, nil, nil
}
