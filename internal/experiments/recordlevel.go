package experiments

import (
	"fmt"
	"strings"

	"rpbeat/internal/core"
	"rpbeat/internal/fixp"
	"rpbeat/internal/store"
)

// RecordLevelResult is the end-to-end (record-driven) evaluation: unlike the
// Table II beat sets, beats here are located by the node's own wavelet
// detector, so detector misses and localization jitter — present on the
// real WBSN — affect the figures.
type RecordLevelResult struct {
	Records  int
	Seconds  float64 // total signal evaluated
	AnnBeats int     // annotated beats
	Detected int     // detector output count

	DetectorSensitivity float64 // matched annotations / annotations
	DetectorPPV         float64 // matched detections / detections

	NDR float64 // discarded true normals / matched true normals
	ARR float64 // recognized true abnormals / true abnormals (missed = not recognized)

	ActivationRate float64 // delineations / detected beats

	// Storage endurance of a 1 MiB archive under the two policies of the
	// introduction's second scenario.
	StoreAllHours, StoreGatedHours float64
}

// RecordLevel synthesizes full records (a mix of normal, ectopic and LBBB
// subjects), runs the assembled node (filter → detect → classify → gated
// delineation) and scores the decisions against the generator's
// annotations. Missed beats count against ARR — the honest end-to-end
// accounting.
func (r *Runner) RecordLevel(records int, secondsEach float64) (RecordLevelResult, error) {
	var res RecordLevelResult
	if records <= 0 {
		records = 6
	}
	if secondsEach <= 0 {
		secondsEach = 300
	}
	m, _, err := r.Model(core.KindFuzzy, 8, 4)
	if err != nil {
		return res, err
	}
	emb, err := m.Quantize(fixp.MFLinear)
	if err != nil {
		return res, err
	}
	scores, err := scoreRecords([]*core.Embedded{emb}, r.recordSpecs(records, secondsEach))
	if err != nil {
		return res, err
	}
	s := scores[0]
	res.Records = s.records
	res.Seconds = s.seconds
	res.AnnBeats = s.annBeats
	res.Detected = s.detected
	if res.AnnBeats > 0 {
		res.DetectorSensitivity = float64(s.matched) / float64(res.AnnBeats)
	}
	if res.Detected > 0 {
		res.DetectorPPV = float64(s.matched) / float64(res.Detected)
		res.ActivationRate = float64(s.delineated) / float64(res.Detected)
	}
	res.NDR = s.ndr()
	res.ARR = s.arr()

	// Storage scenario: 1 MiB archive, observed beat rate, observed full-
	// report fraction.
	beatsPerSec := float64(res.Detected) / res.Seconds
	allSec, gatedSec, err := store.Endurance(1<<20, beatsPerSec, res.ActivationRate)
	if err == nil {
		res.StoreAllHours = allSec / 3600
		res.StoreGatedHours = gatedSec / 3600
	}
	return res, nil
}

// Render summarizes the record-level evaluation.
func (r RecordLevelResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "records: %d (%.0f s total), %d annotated beats, %d detected\n",
		r.Records, r.Seconds, r.AnnBeats, r.Detected)
	fmt.Fprintf(&b, "detector: sensitivity %.2f%%, PPV %.2f%%\n",
		100*r.DetectorSensitivity, 100*r.DetectorPPV)
	fmt.Fprintf(&b, "end-to-end classification: NDR %.2f%%  ARR %.2f%%  (activation %.1f%%)\n",
		100*r.NDR, 100*r.ARR, 100*r.ActivationRate)
	fmt.Fprintf(&b, "1 MiB beat archive lasts: %.1f h storing all beats, %.1f h gated\n",
		r.StoreAllHours, r.StoreGatedHours)
	return b.String()
}
