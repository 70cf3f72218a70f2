package ecgsyn

import (
	"math"

	"rpbeat/internal/rng"
)

// Annotation marks one heartbeat in a record: the R-peak sample index and the
// beat class. It mirrors a MIT-BIH beat annotation.
type Annotation struct {
	Sample int
	Class  Class
}

// Fiducials holds the ground-truth wave boundaries of one beat, as sample
// indices into the record. A value of -1 means the wave is absent (e.g. no P
// wave in a PVC).
type Fiducials struct {
	POn, PPeak, POff     int
	QRSOn, RPeak, QRSOff int
	TOn, TPeak, TOff     int
}

// Record is a synthesized multi-lead ECG recording with beat annotations and
// exact fiducial ground truth.
type Record struct {
	Name  string
	Fs    float64
	Leads [NumLeads][]int32 // ADC counts
	Ann   []Annotation
	Truth []Fiducials // parallel to Ann
}

// Duration returns the record length in seconds.
func (rec *Record) Duration() float64 {
	return float64(len(rec.Leads[0])) / rec.Fs
}

// LeadMillivolts converts one lead to millivolts.
func (rec *Record) LeadMillivolts(lead int) []float64 {
	src := rec.Leads[lead]
	out := make([]float64, len(src))
	for i, v := range src {
		out[i] = ToMillivolts(v)
	}
	return out
}

// RecordSpec describes a record to synthesize.
type RecordSpec struct {
	Name    string
	Seconds float64
	// PVCRate is the fraction of beats that are premature ventricular
	// contractions (0 for none).
	PVCRate float64
	// LBBB marks the subject as having a left bundle branch block: all
	// supraventricular beats take the L morphology instead of N.
	LBBB bool
	Seed uint64
	// Var overrides the variability configuration; zero value means
	// DefaultVariability.
	Var *VariabilityConfig
}

// Synthesize renders a full record per spec: rhythm generation (RR model,
// PVC prematurity with compensatory pause), per-beat morphology, noise on
// every lead and ADC quantization.
func Synthesize(spec RecordSpec) *Record {
	v := DefaultVariability()
	if spec.Var != nil {
		v = *spec.Var
	}
	r := rng.New(spec.Seed)
	subj := NewSubject(r.Split(), v)
	n := int(spec.Seconds * Fs)
	rec := &Record{Name: spec.Name, Fs: Fs}

	// --- rhythm: list of (time, class) beat events ---
	type event struct {
		t float64
		c Class
	}
	var events []event
	baseClass := ClassN
	if spec.LBBB {
		baseClass = ClassL
	}
	rrNoise := r.Split()
	t := 0.4 + 0.2*rrNoise.Float64() // first beat offset
	// Respiratory sinus arrhythmia: slow modulation of RR.
	respPhase := rrNoise.Float64() * 2 * math.Pi
	cur := baseClass
	for t < spec.Seconds-0.6 {
		events = append(events, event{t, cur})
		// Class of the next beat: a PVC never directly follows a PVC here
		// (couplets exist clinically but are not needed for the experiments).
		next := baseClass
		if cur != ClassV && rrNoise.Float64() < spec.PVCRate {
			next = ClassV
		}
		resp := 1 + 0.05*math.Sin(2*math.Pi*0.25*t+respPhase)
		rr := subj.MeanRR*resp + rrNoise.NormScaled(0, subj.SDRR)
		if rr < 0.3 {
			rr = 0.3
		}
		switch {
		case next == ClassV:
			rr *= 0.65 // prematurity: the ectopic beat fires early
		case cur == ClassV:
			// Compensatory pause: sinus node keeps its phase, so the beat
			// after the PVC lands a full cycle after the *expected* beat.
			rr = 2*subj.MeanRR - 0.65*subj.MeanRR
		}
		t += rr
		cur = next
	}

	// --- render ---
	var buf [NumLeads][]float64
	for l := 0; l < NumLeads; l++ {
		buf[l] = make([]float64, n)
	}
	for _, ev := range events {
		tpl := subj.beatInstance(ev.c)
		render(tpl, ev.t, buf[:])
		rec.Ann = append(rec.Ann, Annotation{Sample: int(ev.t*Fs + 0.5), Class: ev.c})
		rec.Truth = append(rec.Truth, fiducialsOf(tpl, ev.t))
	}

	// --- noise per lead ---
	noise := r.Split()
	for l := 0; l < NumLeads; l++ {
		phase1 := noise.Float64() * 2 * math.Pi
		phase2 := noise.Float64() * 2 * math.Pi
		phaseMains := noise.Float64() * 2 * math.Pi
		for i := 0; i < n; i++ {
			ts := float64(i) / Fs
			buf[l][i] += subj.WanderAmp*(math.Sin(2*math.Pi*0.15*ts+phase1)+
				0.5*math.Sin(2*math.Pi*0.31*ts+phase2)) +
				subj.MainsAmp*math.Sin(2*math.Pi*60*ts+phaseMains) +
				noise.NormScaled(0, subj.NoiseSD)
		}
	}

	for l := 0; l < NumLeads; l++ {
		rec.Leads[l] = make([]int32, n)
		for i := 0; i < n; i++ {
			rec.Leads[l][i] = Quantize(buf[l][i])
		}
	}
	return rec
}

// fiducialsOf derives ground-truth wave boundaries from a rendered template.
// Onset/end are taken at ±2.5 sigma of the first/last bump of each wave —
// the point where the Gaussian falls to ~4% of its peak, matching what a
// human annotator would mark on the synthetic trace.
func fiducialsOf(tpl Template, tR float64) Fiducials {
	f := Fiducials{POn: -1, PPeak: -1, POff: -1, TOn: -1, TPeak: -1, TOff: -1}
	toSample := func(sec float64) int { return int((tR+sec)*Fs + 0.5) }

	var qrsOn, qrsOff float64
	qrsOn, qrsOff = math.Inf(1), math.Inf(-1)
	var rPos, rAmp float64
	for _, b := range tpl.Bumps {
		switch b.Kind {
		case WaveP:
			f.POn = toSample(b.Pos - 2.5*b.Width)
			f.PPeak = toSample(b.Pos)
			f.POff = toSample(b.Pos + 2.5*b.Width)
		case WaveQRS:
			if on := b.Pos - 2.5*b.Width; on < qrsOn {
				qrsOn = on
			}
			if off := b.Pos + 2.5*b.Width; off > qrsOff {
				qrsOff = off
			}
			if math.Abs(b.Amp) > math.Abs(rAmp) {
				rAmp, rPos = b.Amp, b.Pos
			}
		case WaveT:
			f.TOn = toSample(b.Pos - 2.5*b.Width)
			f.TPeak = toSample(b.Pos)
			f.TOff = toSample(b.Pos + 2.5*b.Width)
		}
	}
	f.QRSOn = toSample(qrsOn)
	f.RPeak = toSample(rPos)
	f.QRSOff = toSample(qrsOff)
	return f
}
