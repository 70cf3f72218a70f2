package bitemb

import (
	"errors"
	"fmt"
	"sort"

	"rpbeat/internal/metrics"
	"rpbeat/internal/nfc"
)

// Fit derives the head from integer projections of training beats: each
// threshold is the median (the adaptive order statistic) of its coefficient,
// each prototype the per-bit majority vote of its class, and each radius the
// maximum within-class Hamming distance to the class prototype plus one bit
// of slack (capped at K) — so in-distribution beats are never radius-
// rejected, and the gate only fires on codes farther out than anything the
// class exhibited in training.
func Fit(proj [][]int32, labels []uint8, k int) (*Params, error) {
	if len(proj) == 0 {
		return nil, errors.New("bitemb: empty training projection set")
	}
	if len(labels) != len(proj) {
		return nil, fmt.Errorf("bitemb: %d labels for %d beats", len(labels), len(proj))
	}
	p := &Params{K: k, Thresholds: make([]int32, k)}

	// Thresholds: per-coefficient medians over all training beats.
	col := make([]int32, len(proj))
	for j := 0; j < k; j++ {
		for i, u := range proj {
			if len(u) != k {
				return nil, fmt.Errorf("bitemb: beat %d has %d coefficients, want %d", i, len(u), k)
			}
			col[i] = u[j]
		}
		sort.Slice(col, func(a, b int) bool { return col[a] < col[b] })
		p.Thresholds[j] = col[len(col)/2]
	}

	// Codes, then per-class majority-bit prototypes.
	w := Words(k)
	codes := make([][]uint64, len(proj))
	flat := make([]uint64, len(proj)*w)
	for i, u := range proj {
		codes[i] = flat[i*w : (i+1)*w]
		p.PackInto(u, codes[i])
	}
	var ones [nfc.NumClasses][]int
	var count [nfc.NumClasses]int
	for l := range ones {
		ones[l] = make([]int, k)
	}
	for i, code := range codes {
		l := labels[i]
		if int(l) >= nfc.NumClasses {
			return nil, fmt.Errorf("bitemb: label %d out of range", l)
		}
		count[l]++
		for j := 0; j < k; j++ {
			ones[l][j] += int(code[j/64] >> uint(j&63) & 1)
		}
	}
	for l := 0; l < nfc.NumClasses; l++ {
		if count[l] == 0 {
			return nil, fmt.Errorf("bitemb: class %d has no training beats", l)
		}
		p.Protos[l] = make([]uint64, w)
		for j := 0; j < k; j++ {
			if 2*ones[l][j] >= count[l] {
				p.Protos[l][j/64] |= 1 << uint(j&63)
			}
		}
	}

	// Radii: max within-class distance + 1 bit of slack, capped at K.
	for i, code := range codes {
		f := p.Similarity(code)
		if d := k - int(f[labels[i]]); d > int(p.Radii[labels[i]]) {
			p.Radii[labels[i]] = uint16(d)
		}
	}
	for l := range p.Radii {
		if int(p.Radii[l]) < k {
			p.Radii[l]++
		}
	}
	return p, p.Validate()
}

// Evals scores the head over integer projections, producing the shared
// metrics rows: F is the similarity vector k - dist, so the α machinery
// (MinAlphaForARR, Pareto, Evaluate) applies to this head unchanged.
func (p *Params) Evals(proj [][]int32, labels []uint8) []metrics.Eval {
	code := make([]uint64, Words(p.K))
	evals := make([]metrics.Eval, len(proj))
	for i, u := range proj {
		p.PackInto(u, code)
		f := p.Similarity(code)
		evals[i] = metrics.Eval{
			Label: labels[i],
			F:     [nfc.NumClasses]float64{float64(f[0]), float64(f[1]), float64(f[2])},
		}
	}
	return evals
}
