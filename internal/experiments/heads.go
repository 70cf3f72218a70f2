package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/fixp"
	"rpbeat/internal/wbsn"
)

// --- shared record-level scoring ---

// headScore accumulates the record-level counts for one classifier head over
// the shared evaluation stream.
type headScore struct {
	records  int
	seconds  float64
	annBeats int
	detected int
	matched  int

	matchedNormals, discardedNormals int
	abnormals, recognized            int
	delineated                       int
}

func (s headScore) ndr() float64 {
	if s.matchedNormals == 0 {
		return 0
	}
	return float64(s.discardedNormals) / float64(s.matchedNormals)
}

func (s headScore) arr() float64 {
	if s.abnormals == 0 {
		return 0
	}
	return float64(s.recognized) / float64(s.abnormals)
}

// score matches a record's annotations against one node's output and folds
// the counts in. Each detection is matched at most once; missed beats count
// against ARR (the honest end-to-end accounting). tol is the peak-matching
// tolerance in samples.
func (s *headScore) score(rec *ecgsyn.Record, out *wbsn.Result, tol int) {
	s.records++
	s.seconds += rec.Duration()
	s.annBeats += len(rec.Ann)
	s.detected += len(out.Beats)
	s.delineated += out.DelineatedBeats
	used := make([]bool, len(out.Beats))
	for _, a := range rec.Ann {
		best, bestDiff := -1, tol+1
		for i, b := range out.Beats {
			if used[i] {
				continue
			}
			d := b.Sample - a.Sample
			if d < 0 {
				d = -d
			}
			if d < bestDiff {
				best, bestDiff = i, d
			}
		}
		isAbnormal := a.Class != ecgsyn.ClassN
		if isAbnormal {
			s.abnormals++
		}
		if best < 0 {
			continue // missed beat: abnormal stays unrecognized
		}
		used[best] = true
		s.matched++
		dec := out.Beats[best].Decision
		if isAbnormal {
			if dec.Abnormal() {
				s.recognized++
			}
		} else {
			s.matchedNormals++
			if !dec.Abnormal() {
				s.discardedNormals++
			}
		}
	}
}

// recordSpecs is the fixed mix of subjects the record-level drivers
// evaluate: mostly-normal, ectopy-prone and LBBB records in rotation.
func (r *Runner) recordSpecs(records int, secondsEach float64) []ecgsyn.RecordSpec {
	specs := make([]ecgsyn.RecordSpec, records)
	for rec := range specs {
		spec := ecgsyn.RecordSpec{
			Name:    fmt.Sprintf("rl%02d", rec),
			Seconds: secondsEach,
			Seed:    r.Opts.Seed + uint64(rec)*7919,
		}
		switch rec % 3 {
		case 0: // mostly normal
			spec.PVCRate = 0.02
		case 1: // ectopy-prone
			spec.PVCRate = 0.18
		case 2: // LBBB subject
			spec.LBBB = true
		}
		specs[rec] = spec
	}
	return specs
}

// scoreRecords synthesizes the evaluation stream once and runs every record
// through one assembled node per head, so every head scores against the
// identical signal and annotations.
func scoreRecords(embs []*core.Embedded, specs []ecgsyn.RecordSpec) ([]headScore, error) {
	nodes := make([]*wbsn.Node, len(embs))
	for i, e := range embs {
		n, err := wbsn.NewNode(e)
		if err != nil {
			return nil, err
		}
		nodes[i] = n
	}
	scores := make([]headScore, len(embs))
	const tol = 18 // +/- 50 ms at 360 Hz
	for _, spec := range specs {
		record := ecgsyn.Synthesize(spec)
		leads := make([][]int32, ecgsyn.NumLeads)
		for l := range leads {
			leads[l] = record.Leads[l]
		}
		for i, n := range nodes {
			out, err := n.Process(leads)
			if err != nil {
				return nil, err
			}
			scores[i].score(record, out, tol)
		}
	}
	return scores, nil
}

// --- fuzzy vs bitemb A/B comparison ---

// HeadRow is one head x k operating point of the A/B comparison.
type HeadRow struct {
	K          int
	NDR, ARR   float64
	ModelBytes int // binary codec size: what a node stores and receives OTA
	TableBytes int // classifier working set on the node (tables + scratch)
}

// HeadComparisonResult is the record-level fuzzy-vs-bitemb study: both heads
// trained on the same dataset with the same GA budget, evaluated on the same
// detector output, at k in Coeffs.
type HeadComparisonResult struct {
	Records int
	Seconds float64
	Fuzzy   []HeadRow
	Bitemb  []HeadRow
}

// HeadComparison trains both heads at each coefficient count (paper
// geometry: 90 Hz windows, integer pipeline) and scores them record-level —
// the accuracy cost of the packed 1-bit head, measured next to its model
// size. Defaults: k in {8, 16, 32}, 6 records of 300 s.
func (r *Runner) HeadComparison(coeffs []int, records int, secondsEach float64) (HeadComparisonResult, error) {
	if len(coeffs) == 0 {
		coeffs = []int{8, 16, 32}
	}
	if records <= 0 {
		records = 6
	}
	if secondsEach <= 0 {
		secondsEach = 300
	}
	var res HeadComparisonResult
	specs := r.recordSpecs(records, secondsEach)
	for _, k := range coeffs {
		fm, _, err := r.Model(core.KindFuzzy, k, 4)
		if err != nil {
			return res, fmt.Errorf("heads k=%d fuzzy: %w", k, err)
		}
		bm, _, err := r.Model(core.KindBitemb, k, 4)
		if err != nil {
			return res, fmt.Errorf("heads k=%d bitemb: %w", k, err)
		}
		fe, err := fm.Quantize(fixp.MFLinear)
		if err != nil {
			return res, err
		}
		be, err := bm.Quantize(fixp.MFLinear)
		if err != nil {
			return res, err
		}
		scores, err := scoreRecords([]*core.Embedded{fe, be}, specs)
		if err != nil {
			return res, err
		}
		res.Records, res.Seconds = scores[0].records, scores[0].seconds
		fr, err := headRow(k, fm, fe, scores[0])
		if err != nil {
			return res, err
		}
		br, err := headRow(k, bm, be, scores[1])
		if err != nil {
			return res, err
		}
		res.Fuzzy = append(res.Fuzzy, fr)
		res.Bitemb = append(res.Bitemb, br)
	}
	return res, nil
}

func headRow(k int, m *core.Model, e *core.Embedded, s headScore) (HeadRow, error) {
	var bin bytes.Buffer
	if err := m.WriteBinary(&bin); err != nil {
		return HeadRow{}, err
	}
	return HeadRow{K: k, NDR: s.ndr(), ARR: s.arr(), ModelBytes: bin.Len(), TableBytes: e.MemoryBytes()}, nil
}

// Render formats the comparison as one aligned table, fuzzy and bitemb rows
// interleaved per k.
func (h HeadComparisonResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "record-level head comparison (%d records, %.0f s; missed beats count against ARR)\n",
		h.Records, h.Seconds)
	b.WriteString("   k  head        NDR%     ARR%   model B   table B\n")
	row := func(name string, r HeadRow) {
		fmt.Fprintf(&b, "%4d  %-8s %7.2f  %7.2f  %8d  %8d\n",
			r.K, name, 100*r.NDR, 100*r.ARR, r.ModelBytes, r.TableBytes)
	}
	for i := range h.Fuzzy {
		row("fuzzy", h.Fuzzy[i])
		row("bitemb", h.Bitemb[i])
	}
	return b.String()
}
