// Package wbsn assembles the complete sensor-node pipeline of the paper's
// Figure 6: morphological filtering of the leads, wavelet peak detection on
// lead 0, windowing, the embedded RP + neuro-fuzzy classifier, and — only
// for beats flagged abnormal — 3-lead MMD delineation, followed by the
// radio reporting policy of Sec. IV-E (peak-only for discarded normals, all
// nine fiducial points otherwise).
package wbsn

import (
	"errors"

	"rpbeat/internal/beatset"
	"rpbeat/internal/core"
	"rpbeat/internal/delin"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/energy"
	"rpbeat/internal/nfc"
	"rpbeat/internal/peak"
	"rpbeat/internal/sigdsp"
)

// Node is a WBSN instance: the paper's fixed front end (ecgsyn's 360 Hz
// ADC geometry, beatset's beat window) around an embedded classifier.
type Node struct {
	Emb *core.Embedded
}

// NewNode builds a node around an embedded classifier.
func NewNode(emb *core.Embedded) (*Node, error) {
	if emb == nil {
		return nil, errors.New("wbsn: nil classifier")
	}
	if err := emb.Validate(); err != nil {
		return nil, err
	}
	return &Node{Emb: emb}, nil
}

// BeatReport is the node's output for one detected beat.
type BeatReport struct {
	Sample       int
	Decision     nfc.Decision
	Delineated   bool
	Fiducials    delin.Fiducials // valid when Delineated
	PayloadBytes int             // radio payload under the gated policy
}

// Result summarizes a processing run.
type Result struct {
	Beats []BeatReport
	// Traffic feeds the energy model directly.
	Traffic energy.TrafficCounts
	// DelineatedBeats is how many beats activated the detailed analysis.
	DelineatedBeats int
}

// ActivationRate is the fraction of beats that triggered delineation.
func (r *Result) ActivationRate() float64 {
	if len(r.Beats) == 0 {
		return 0
	}
	return float64(r.DelineatedBeats) / float64(len(r.Beats))
}

// Process runs the full pipeline over raw ADC leads (lead 0 drives
// detection and classification; all leads feed delineation).
func (n *Node) Process(leads [][]int32) (*Result, error) {
	if len(leads) == 0 || len(leads[0]) == 0 {
		return nil, errors.New("wbsn: no signal")
	}
	// Filter every lead in millivolts.
	base := sigdsp.DefaultBaselineConfig(ecgsyn.Fs)
	filtered := make([][]float64, len(leads))
	for l, sig := range leads {
		mv := make([]float64, len(sig))
		for i, v := range sig {
			mv[i] = ecgsyn.ToMillivolts(v)
		}
		filtered[l] = sigdsp.FilterECG(mv, base)
	}

	peaks := peak.Detect(filtered[0], peak.Config{Fs: ecgsyn.Fs})

	res := &Result{}
	// Classify every beat; collect the abnormal ones for delineation.
	var abnormalIdx []int
	var abnormalPeaks []int
	for i, p := range peaks {
		w := sigdsp.WindowInt(leads[0], p, beatset.Before, beatset.After)
		w = sigdsp.DownsampleInt(w, n.Emb.Downsample)
		d := n.Emb.Classify(w)
		rep := BeatReport{Sample: p, Decision: d}
		if d.Abnormal() {
			abnormalIdx = append(abnormalIdx, i)
			abnormalPeaks = append(abnormalPeaks, p)
			rep.PayloadBytes = energy.FullBeatBytes
			res.Traffic.FullReports++
		} else {
			rep.PayloadBytes = energy.PeakOnlyBytes
			res.Traffic.NormalDiscarded++
		}
		res.Beats = append(res.Beats, rep)
	}

	// Delineate only the flagged beats (the gating that saves the duty
	// cycle in Table III).
	if len(abnormalPeaks) > 0 {
		fids := delin.DelineateMultiLead(filtered, abnormalPeaks, delin.Config{Fs: ecgsyn.Fs})
		for j, idx := range abnormalIdx {
			res.Beats[idx].Delineated = true
			res.Beats[idx].Fiducials = fids[j]
		}
		res.DelineatedBeats = len(abnormalPeaks)
	}
	return res, nil
}
