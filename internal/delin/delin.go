// Package delin implements ECG wave delineation with multiscale
// morphological derivatives (MMD), the "detailed analysis" stage the
// RP-classifier gates on the WBSN (sub-system (2) of the paper, after
// Rincon et al., IEEE TITB 2011).
//
// The MMD transform (see sigdsp.MMD) responds positively at concave corners
// of the signal — wave onsets and ends — and strongly negatively at convex
// peaks, so fiducial points are located as MMD extrema inside physiologically
// bounded search windows around each detected R peak. Three-lead delineation
// fuses the filtered leads into a root-sum-square envelope before applying
// the transform, which makes boundaries visible even when a wave projects
// weakly on one lead.
package delin

import (
	"math"

	"rpbeat/internal/sigdsp"
)

// Fiducials are the delineation outputs for one beat: nine fiducial points
// (3 waves × onset/peak/end), as sample indices, or -1 when the wave was not
// found (e.g. no P wave before a ventricular beat).
type Fiducials struct {
	POn, PPeak, POff     int
	QRSOn, RPeak, QRSOff int
	TOn, TPeak, TOff     int
}

// Count returns how many of the nine fiducial points were found.
func (f *Fiducials) Count() int {
	n := 0
	for _, v := range []int{f.POn, f.PPeak, f.POff, f.QRSOn, f.RPeak, f.QRSOff, f.TOn, f.TPeak, f.TOff} {
		if v >= 0 {
			n++
		}
	}
	return n
}

// The delineation windows, suitable for adult ECG at any sampling rate
// (expressed in seconds and converted with Config.Fs), and the P-wave floor.
const (
	qrsScaleSec = 0.028 // MMD scale for QRS corners
	ptScaleSec  = 0.055 // MMD scale for P/T corners

	qrsPreSec  = 0.13 // QRS onset search before R
	qrsPostSec = 0.17 // QRS end search after R
	pWinSec    = 0.24 // P search window before QRS onset
	tWinSec    = 0.38 // T search window after QRS end

	// pMinAmp is the minimum P-wave prominence (in signal units) for the
	// wave to be reported (mV when fed millivolt signals).
	pMinAmp = 0.05
)

// Config carries the sampling frequency that converts the search windows
// from seconds to samples.
type Config struct {
	Fs float64 // sampling frequency; default 360
}

// DelineateLead delineates every beat of one filtered (baseline-free) lead
// given the detected R-peak positions. The lead is rectified first so that
// inverted waves (discordant T in LBBB/PVC beats, Q/S deflections) present
// the same corner geometry as upright ones: onsets/ends are concave corners
// (MMD maxima) and wave apexes convex peaks (MMD minima) of the envelope.
func DelineateLead(x []float64, rPeaks []int, cfg Config) []Fiducials {
	env := make([]float64, len(x))
	for i, v := range x {
		env[i] = math.Abs(v)
	}
	return delineate(env, rPeaks, cfg)
}

// DelineateMultiLead fuses the filtered leads (root sum of squares, which
// rectifies and combines wave energy across projections) and delineates the
// fused envelope. This is the 3-lead configuration of sub-system (2).
func DelineateMultiLead(leads [][]float64, rPeaks []int, cfg Config) []Fiducials {
	if len(leads) == 0 {
		return nil
	}
	n := len(leads[0])
	fused := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for _, l := range leads {
			s += l[i] * l[i]
		}
		fused[i] = math.Sqrt(s)
	}
	return delineate(fused, rPeaks, cfg)
}

func delineate(x []float64, rPeaks []int, cfg Config) []Fiducials {
	fs := cfg.Fs
	if fs <= 0 {
		fs = 360
	}
	mmdQRS := sigdsp.MMD(x, int(qrsScaleSec*fs))
	mmdPT := sigdsp.MMD(x, int(ptScaleSec*fs))

	out := make([]Fiducials, len(rPeaks))
	for i, r := range rPeaks {
		out[i] = delineateBeat(x, mmdQRS, mmdPT, r, fs)
	}
	return out
}

func delineateBeat(x, mmdQRS, mmdPT []float64, r int, fs float64) Fiducials {
	f := Fiducials{POn: -1, PPeak: -1, POff: -1, QRSOn: -1, RPeak: r, QRSOff: -1, TOn: -1, TPeak: -1, TOff: -1}
	n := len(x)
	if r < 0 || r >= n {
		f.RPeak = -1
		return f
	}
	sec := func(s float64) int { return int(s * fs) }

	// QRS onset: the strongest concave corner (MMD maximum) before R.
	lo, hi := r-sec(qrsPreSec), r-sec(0.012)
	f.QRSOn = argmaxRange(mmdQRS, lo, hi)
	// QRS end: the strongest corner after R.
	lo, hi = r+sec(0.012), r+sec(qrsPostSec)
	f.QRSOff = argmaxRange(mmdQRS, lo, hi)

	// T wave: search after QRS end.
	if f.QRSOff >= 0 {
		tLo := f.QRSOff + sec(0.04)
		tHi := f.QRSOff + sec(tWinSec)
		if tHi > n {
			tHi = n
		}
		// T peak: strongest convex extremum (most negative MMD).
		f.TPeak = argminRange(mmdPT, tLo, tHi)
		if f.TPeak >= 0 {
			f.TOn = argmaxRange(mmdPT, tLo, f.TPeak-sec(0.01))
			f.TOff = argmaxRange(mmdPT, f.TPeak+sec(0.01), tHi+sec(0.08))
			if f.TOn < 0 || f.TOff < 0 {
				f.TOn, f.TPeak, f.TOff = -1, -1, -1
			}
		}
	}

	// P wave: search before QRS onset; may be absent (PVC).
	if f.QRSOn >= 0 {
		pLo := f.QRSOn - sec(pWinSec)
		pHi := f.QRSOn - sec(0.015)
		pPeak := argminRange(mmdPT, pLo, pHi)
		if pPeak >= 0 {
			// Prominence test against the local envelope baseline.
			base := math.Min(valueAt(x, pLo), valueAt(x, pHi))
			if x[pPeak]-base >= pMinAmp {
				f.PPeak = pPeak
				f.POn = argmaxRange(mmdPT, pLo-sec(0.06), pPeak-sec(0.01))
				f.POff = argmaxRange(mmdPT, pPeak+sec(0.01), pHi+sec(0.02))
				if f.POn < 0 || f.POff < 0 {
					f.POn, f.PPeak, f.POff = -1, -1, -1
				}
			}
		}
	}
	return f
}

func valueAt(x []float64, i int) float64 {
	if i < 0 {
		i = 0
	}
	if i >= len(x) {
		i = len(x) - 1
	}
	if len(x) == 0 {
		return 0
	}
	return x[i]
}

// argmaxRange returns the index of the maximum of v on [lo, hi), clipped to
// the signal, or -1 for an empty window.
func argmaxRange(v []float64, lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > len(v) {
		hi = len(v)
	}
	if hi <= lo {
		return -1
	}
	best := lo
	for i := lo + 1; i < hi; i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// argminRange is argmaxRange for the minimum.
func argminRange(v []float64, lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > len(v) {
		hi = len(v)
	}
	if hi <= lo {
		return -1
	}
	best := lo
	for i := lo + 1; i < hi; i++ {
		if v[i] < v[best] {
			best = i
		}
	}
	return best
}
