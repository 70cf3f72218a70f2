// Package peak implements the wavelet-based QRS detector used by the WBSN
// front end (first proposed for embedded nodes in Rincon et al., IEEE TITB
// 2011, following the Mallat/Li modulus-maxima approach): the signal is
// decomposed into three dyadic scales with the à trous transform; QRS
// complexes appear as pairs of modulus maxima with opposite signs across
// adjacent scales, and the R peak is the zero crossing between the pair on
// the first scale.
package peak

import (
	"math"
	"sort"

	"rpbeat/internal/sigdsp"
)

// The detector's fixed tuning for ambulatory ECG; spans are in seconds and
// converted with Config.Fs.
const (
	thresholdFactor = 2.0  // scales the per-window RMS threshold
	windowSec       = 2    // adaptive-threshold window: 720 samples at 360 Hz
	pairSec         = 0.16 // maximum modulus-maxima pair spacing (wide enough for LBBB/PVC complexes)
	refractorySec   = 0.22 // suppresses detections after an accepted peak

	minLen    = 16 // samples; shorter records have no peaks
	dwtLevels = 3  // à trous levels computed; z reads scales 2^2 and 2^3 (levels 1 and 2)
)

// Config sets the detector's sampling frequency and mode.
type Config struct {
	Fs float64 // sampling frequency; default 360

	// SearchBack enables re-scanning long RR gaps with halved thresholds;
	// default on (disable with SearchBackOff).
	SearchBackOff bool

	// StartSample phase-aligns a StreamDetector that resumes an interrupted
	// stream mid-record: it is the absolute index of the first sample this
	// detector will see, and the detector shortens its first adaptive-
	// threshold window so that all later window boundaries land on the same
	// absolute sample indices as a detector that consumed the stream from
	// sample zero. Emitted peak indices stay relative to the resumed feed
	// (the caller re-bases them). The batch detector ignores it — a batch
	// run always sees the whole record.
	StartSample int
}

func (c Config) withDefaults() Config {
	if c.Fs <= 0 {
		c.Fs = 360
	}
	return c
}

// candidate is an internal QRS candidate: the zero-crossing position and the
// modulus-maxima pair amplitude (used to arbitrate refractory conflicts).
type candidate struct {
	pos int
	amp float64
}

// extremum is a significant local extremum of the detection signal.
type extremum struct {
	pos int
	val float64
}

// Scratch holds the reusable working buffers of one detection run: the
// wavelet decomposition, the thresholds of the two scales the detection
// signal combines, the signal and its threshold, and the
// extremum/candidate/peak lists. A zero value is ready to use; buffers grow
// to the largest record seen and are reused afterwards, so a warm scratch
// makes DetectInto nearly allocation-free. Not safe for concurrent use.
type Scratch struct {
	dwt   sigdsp.DWT
	thr   [2][]float64 // windowed RMS of scales 2^2 and 2^3
	z     []float64
	thrZ  []float64
	ext   []extremum
	cands []candidate
	kept  []candidate
	peaks []int
}

func growFloat(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// scales holds the combined detection signal and its adaptive threshold.
type scales struct {
	// z is the detection signal: the sum of scales 2^2 and 2^3 normalized by
	// their local RMS. QRS complexes put energy into both scales (narrow
	// ones into 2^2, wide LBBB/PVC ones into 2^3) while T waves and
	// wide-band noise each excite only one, so the normalized sum separates
	// beats from both.
	z    []float64
	thrZ []float64
}

func decompose(sc *Scratch, x []float64, c Config) scales {
	sigdsp.AtrousDWTInto(&sc.dwt, x, dwtLevels)
	w := sc.dwt.W
	n := len(x)
	win := int(windowSec * c.Fs)
	for i := range sc.thr {
		sc.thr[i] = growFloat(sc.thr[i], n)
		windowedRMSInto(sc.thr[i], w[i+1], win)
	}
	sc.z = growFloat(sc.z, n)
	for i := 0; i < n; i++ {
		sc.z[i] = w[1][i]/(sc.thr[0][i]+1e-300) + w[2][i]/(sc.thr[1][i]+1e-300)
	}
	sc.thrZ = growFloat(sc.thrZ, n)
	windowedRMSInto(sc.thrZ, sc.z, win)
	return scales{z: sc.z, thrZ: sc.thrZ}
}

// slice restricts the scales to [lo, hi) (for search-back).
func (s scales) slice(lo, hi int) scales {
	return scales{z: s.z[lo:hi], thrZ: s.thrZ[lo:hi]}
}

// Detect returns the R-peak sample indices found in x (a single filtered
// lead), sorted ascending.
//
// Each call allocates its own working buffers; DetectInto reuses a Scratch.
func Detect(x []float64, cfg Config) []int {
	return DetectInto(x, cfg, new(Scratch))
}

// DetectInto is Detect running through the caller's scratch buffers: the
// decomposition, thresholds and candidate lists are reused across calls, so
// a warm scratch detects with O(1) allocations (search-back, when enabled,
// still allocates for its re-scan passes). The returned slice aliases s and
// is valid until the next call with the same scratch; copy it to retain.
//
//rpbeat:allocfree
func DetectInto(x []float64, cfg Config, s *Scratch) []int {
	c := cfg.withDefaults()
	if len(x) < minLen {
		return nil
	}
	sc := decompose(s, x, c)
	cands := detectPass(s, sc, c, 1.0)
	peaks := arbitrate(s, cands, int(refractorySec*c.Fs))

	if !c.SearchBackOff && len(peaks) >= 3 {
		peaks = searchBack(s, peaks, sc, c)
	}
	return peaks
}

// detectPass scans the combined detection signal for significant
// modulus-maxima pairs and localizes each QRS at the zero crossing between
// the pair (on the finest scale that shows one, per the paper). thrScale
// relaxes thresholds (< 1) during search-back. The returned slice aliases
// sc.cands.
func detectPass(sc *Scratch, s scales, c Config, thrScale float64) []candidate {
	z, tz := s.z, s.thrZ
	n := len(z)
	pair := int(pairSec * c.Fs)

	// Significant local extrema of the detection signal.
	ext := sc.ext[:0]
	for i := 1; i < n-1; i++ {
		v := z[i]
		if math.Abs(v) < thrScale*thresholdFactor*tz[i] {
			continue
		}
		if (v > 0 && v >= z[i-1] && v > z[i+1]) || (v < 0 && v <= z[i-1] && v < z[i+1]) {
			ext = append(ext, extremum{i, v})
		}
	}
	sc.ext = ext

	cands := sc.cands[:0]
	for i := 0; i+1 < len(ext); i++ {
		a, b := ext[i], ext[i+1]
		if a.val*b.val >= 0 || b.pos-a.pos > pair {
			continue // need opposite signs within the pair window
		}
		// Zero crossing of the detection signal between the pair (the
		// paper's scale-1 zero crossing generalized to the combined signal;
		// fine scales alone are unreliable for wide, smooth complexes whose
		// high-frequency content is noise).
		zc := zeroCrossing(z, a.pos, b.pos)
		if zc < 0 {
			zc = (a.pos + b.pos) / 2
		}
		cands = append(cands, candidate{pos: zc, amp: math.Abs(a.val) + math.Abs(b.val)})
	}
	sc.cands = cands
	return cands
}

// windowedRMSInto computes a per-sample threshold baseline into out (which
// must have len(v)): the RMS of v over
// non-overlapping windows, held constant inside each window. Using windows
// rather than a global RMS makes the detector robust to noise bursts and
// amplitude drift within a record.
//
//rpbeat:allocfree
func windowedRMSInto(out, v []float64, win int) {
	if win < 8 {
		win = 8
	}
	for start := 0; start < len(v); start += win {
		end := start + win
		if end > len(v) {
			end = len(v)
		}
		var s float64
		for _, x := range v[start:end] {
			s += x * x
		}
		r := math.Sqrt(s / float64(end-start))
		for i := start; i < end; i++ {
			out[i] = r
		}
	}
}

// zeroCrossing returns the index of the sign change of w inside (lo, hi), or
// -1 when w does not change sign there.
func zeroCrossing(w []float64, lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi >= len(w) {
		hi = len(w) - 1
	}
	for i := lo; i < hi; i++ {
		if w[i] == 0 {
			return i
		}
		if (w[i] > 0) != (w[i+1] > 0) {
			// Pick the sample closer to zero.
			if math.Abs(w[i]) <= math.Abs(w[i+1]) {
				return i
			}
			return i + 1
		}
	}
	return -1
}

// arbitrate enforces the refractory period: candidates closer than refract
// keep only the largest-amplitude member. cands is sorted in place; the
// returned slice aliases sc.peaks.
func arbitrate(sc *Scratch, cands []candidate, refract int) []int {
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].pos < cands[j].pos })
	kept := sc.kept[:0]
	for _, c := range cands {
		if len(kept) > 0 && c.pos-kept[len(kept)-1].pos < refract {
			if c.amp > kept[len(kept)-1].amp {
				kept[len(kept)-1] = c
			}
			continue
		}
		kept = append(kept, c)
	}
	sc.kept = kept
	peaks := sc.peaks[:0]
	for _, c := range kept {
		peaks = append(peaks, c.pos)
	}
	sc.peaks = peaks
	return peaks
}

// searchBack re-scans abnormally long RR gaps with relaxed thresholds,
// recovering low-amplitude beats the first pass missed. peaks may alias
// sc.peaks: the gap list is copied up front because the nested
// detectPass/arbitrate calls clobber the scratch lists. The returned slice
// is freshly allocated (search-back is the retrospective batch path, off on
// every streaming/serving configuration, so its allocations are acceptable).
func searchBack(sc *Scratch, peaks []int, s scales, c Config) []int {
	orig := append([]int(nil), peaks...)
	rrs := make([]float64, 0, len(orig)-1)
	for i := 1; i < len(orig); i++ {
		rrs = append(rrs, float64(orig[i]-orig[i-1]))
	}
	med := median(rrs)
	if med <= 0 {
		return orig
	}
	refract := int(refractorySec * c.Fs)
	out := append([]int(nil), orig...)
	for i := 1; i < len(orig); i++ {
		gap := float64(orig[i] - orig[i-1])
		if gap < 1.66*med {
			continue
		}
		lo, hi := orig[i-1]+refract, orig[i]-refract
		if hi <= lo {
			continue
		}
		sub := detectPass(sc, s.slice(lo, hi), c, 0.5)
		for _, cd := range arbitrate(sc, sub, refract) {
			out = append(out, lo+cd)
		}
	}
	sort.Ints(out)
	// Deduplicate anything the search-back re-found.
	dedup := out[:0]
	for _, p := range out {
		if len(dedup) > 0 && p-dedup[len(dedup)-1] < refract {
			continue
		}
		dedup = append(dedup, p)
	}
	return dedup
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return 0.5 * (s[len(s)/2-1] + s[len(s)/2])
}

// Match compares detections against reference annotations with the given
// tolerance (samples) and returns (truePositives, falsePositives,
// falseNegatives). Each reference matches at most one detection.
//
//rpvet:allow deadcode -- reference: TestIntegration_DetectorOnDiskedRecord and TestMatchAccounting score detections with it
func Match(detected, reference []int, tol int) (tp, fp, fn int) {
	used := make([]bool, len(detected))
	for _, ref := range reference {
		found := false
		for i, det := range detected {
			if used[i] {
				continue
			}
			if det >= ref-tol && det <= ref+tol {
				used[i] = true
				found = true
				break
			}
		}
		if found {
			tp++
		} else {
			fn++
		}
	}
	for _, u := range used {
		if !u {
			fp++
		}
	}
	return
}
