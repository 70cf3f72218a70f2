// Package bitemb implements the binary adaptive embedding head: a second
// classifier kind alongside the paper's neuro-fuzzy head, following Valsesia
// & Magli's "binary adaptive embeddings from order statistics of random
// projections" (see PAPERS.md).
//
// Instead of evaluating k×3 membership functions and a product fuzzifier per
// beat, the head thresholds each projected coefficient u_j at an adaptive
// per-coefficient threshold t_j (an order statistic — the training-set
// median — of that coefficient, which is what makes the embedding
// "adaptive"), packs the k resulting sign bits into ⌈k/64⌉ uint64 words, and
// classifies by Hamming distance to one packed prototype per class:
//
//	bit_j   = 1  iff  u_j ≥ t_j
//	dist_l  = popcount(code XOR proto_l)
//
// The decision reuses the paper's defuzzification machinery verbatim by
// mapping distances to similarities f_l = k - dist_l: the division-free Q15
// margin rule (fixp.Defuzzify) then applies unchanged, so α calibration,
// MinAlphaForARR and the Pareto drivers in internal/metrics all work on this
// head exactly as on the fuzzy one. A per-class Hamming acceptance radius
// (calibrated from the training distance distribution) additionally rejects
// beats far from every prototype as U; since U counts as "recognized" for
// ARR, the radius gate can only make the abnormal-recognition guarantee
// tighter, never looser, so the α picked by MinAlphaForARR stays valid.
//
// The whole per-beat cost is the sparse projection plus a handful of word
// ops — branch-free and data-independent — and the model above the
// projection matrix is k thresholds + 3 packed prototypes + 3 radii: a few
// dozen bytes at the paper's k = 8.
package bitemb

import (
	"errors"
	"fmt"
	"math/bits"

	"rpbeat/internal/fixp"
	"rpbeat/internal/nfc"
	"rpbeat/internal/rp"
)

// Words returns the number of uint64 code words a k-bit embedding packs
// into.
func Words(k int) int { return (k + 63) / 64 }

// Params is the binary embedding head: thresholds, packed class prototypes
// and acceptance radii. It is immutable after construction and may be shared
// freely across goroutines (every classify method writes only into
// caller-owned scratch).
type Params struct {
	// K is the number of embedding bits (= projection coefficients).
	K int
	// Thresholds holds the per-coefficient binarization thresholds, in the
	// integer units of the projected ADC counts. Fit derives them as
	// training-set medians.
	Thresholds []int32
	// Protos holds one packed prototype code per class (nfc class order),
	// Words(K) words each, bit j of word j/64 carrying coefficient j. Bits at
	// positions ≥ K are zero.
	Protos [nfc.NumClasses][]uint64
	// Radii holds the per-class Hamming acceptance radius: a beat whose
	// arg-max class l sits further than Radii[l] bits from proto_l is
	// rejected as U.
	Radii [nfc.NumClasses]uint16
}

// Validate checks structural invariants.
func (p *Params) Validate() error {
	if p.K <= 0 {
		return errors.New("bitemb: non-positive K")
	}
	if len(p.Thresholds) != p.K {
		return fmt.Errorf("bitemb: %d thresholds, want %d", len(p.Thresholds), p.K)
	}
	w := Words(p.K)
	for l := 0; l < nfc.NumClasses; l++ {
		if len(p.Protos[l]) != w {
			return fmt.Errorf("bitemb: prototype %d has %d words, want %d", l, len(p.Protos[l]), w)
		}
		if r := p.K & 63; r != 0 {
			if p.Protos[l][w-1]&^(1<<uint(r)-1) != 0 {
				return fmt.Errorf("bitemb: prototype %d has bits set beyond K=%d", l, p.K)
			}
		}
		if int(p.Radii[l]) > p.K {
			return fmt.Errorf("bitemb: radius %d exceeds K=%d", p.Radii[l], p.K)
		}
	}
	return nil
}

// TableBytes reports the model footprint above the projection matrix: the
// thresholds, the packed prototypes and the radii — what the node stores
// besides the matrix and code.
func (p *Params) TableBytes() int {
	return 4*len(p.Thresholds) + 8*nfc.NumClasses*Words(p.K) + 2*nfc.NumClasses
}

// PackInto binarizes the projected coefficients u (length K) into the packed
// code (length Words(K)). The sign extraction is branch-free: bit j is set
// iff u_j ≥ t_j.
//
//rpbeat:allocfree
func (p *Params) PackInto(u []int32, code []uint64) {
	if len(u) != p.K || len(code) != Words(p.K) {
		panic("bitemb: PackInto dimension mismatch")
	}
	var word uint64
	wi := 0
	for j, v := range u {
		word |= uint64((^uint32(v-p.Thresholds[j]))>>31) << uint(j&63)
		if j&63 == 63 {
			code[wi] = word
			word = 0
			wi++
		}
	}
	if p.K&63 != 0 {
		code[wi] = word
	}
}

// Similarity returns the per-class similarities f_l = K - hamming(code,
// proto_l) — the non-negative values the shared defuzzification and metrics
// machinery consumes in place of the fuzzy accumulators.
//
//rpbeat:allocfree
func (p *Params) Similarity(code []uint64) [nfc.NumClasses]uint32 {
	if len(code) != Words(p.K) {
		panic("bitemb: Similarity dimension mismatch")
	}
	k := uint32(p.K)
	var f [nfc.NumClasses]uint32
	for l := 0; l < nfc.NumClasses; l++ {
		proto := p.Protos[l]
		var d uint32
		for w := range proto {
			d += uint32(bits.OnesCount64(code[w] ^ proto[w]))
		}
		f[l] = k - d
	}
	return f
}

// ClassifyCode applies the decision rule to a packed code: the Q15 margin
// rule over similarities (identical to the fuzzy head's defuzzification),
// then the per-class radius gate.
//
//rpbeat:allocfree
func (p *Params) ClassifyCode(code []uint64, alpha fixp.AlphaQ15) nfc.Decision {
	if len(code) != Words(p.K) {
		panic("bitemb: ClassifyCode dimension mismatch")
	}
	if p.K <= 64 {
		return p.classifyWord(code[0], alpha)
	}
	f := p.Similarity(code)
	return p.gate(f, fixp.Defuzzify(f, alpha))
}

// classifyWord is the single-word (K ≤ 64) decide path: the three popcounts
// unrolled with no slice traffic, then the same margin rule and radius gate
// as the general path (TestClassifyWordMatchesGeneral asserts equivalence).
//
//rpbeat:allocfree
func (p *Params) classifyWord(word uint64, alpha fixp.AlphaQ15) nfc.Decision {
	k := uint32(p.K)
	f := [nfc.NumClasses]uint32{
		k - uint32(bits.OnesCount64(word^p.Protos[0][0])),
		k - uint32(bits.OnesCount64(word^p.Protos[1][0])),
		k - uint32(bits.OnesCount64(word^p.Protos[2][0])),
	}
	return p.gate(f, fixp.Defuzzify(f, alpha))
}

// gate applies the per-class Hamming radius to a margin-rule decision.
// nfc encodes DecideN/L/V as the class indices 0/1/2, so a non-U decision
// indexes its own similarity: the gate rejects when the winning class is
// further than its calibrated radius.
//
//rpbeat:allocfree
func (p *Params) gate(f [nfc.NumClasses]uint32, d nfc.Decision) nfc.Decision {
	if d != nfc.DecideU && uint32(p.K)-f[d] > uint32(p.Radii[d]) {
		return nfc.DecideU
	}
	return d
}

// ClassifyInto runs threshold + pack + popcount + decide on projected
// coefficients, with caller-owned code scratch of length Words(K).
//
//rpbeat:allocfree
//rpvet:allow deadcode -- reference: TestFusedKernelMatchesReference and TestBitembKernelSpeedupFloor compare the fused kernel against it
func (p *Params) ClassifyInto(u []int32, alpha fixp.AlphaQ15, code []uint64) nfc.Decision {
	p.PackInto(u, code)
	return p.ClassifyCode(code, alpha)
}

// PreLen returns the length of the prefix scratch ClassifySparseInto needs
// for the matrix s: one running-sum slot per non-zero plus a leading zero
// per sign.
func PreLen(s *rp.SparseMatrix) int { return len(s.Pos) + len(s.Neg) + 2 }

// ClassifySparseInto is the fused hot-path kernel: it folds the sparse
// projection, the threshold comparison and the bit pack into one pass over
// the matrix — no intermediate coefficient buffer — then decides by XOR +
// popcount. It is bit-identical to ProjectIntInto + ClassifyInto (asserted
// by TestFusedKernelMatchesReference) and is what core.Embedded.ClassifyInto
// dispatches to for bitemb models.
//
// The projection runs as one flat prefix-sum pass per sign over pre (caller
// scratch, at least PreLen(s) long); row r's partial sum is then a prefix
// difference. Two long predictable loops replace 2k tiny ones whose exits
// mispredict at very-sparse densities — at ~2 non-zeros per row the loop
// overhead, not the adds, dominates the per-row form. Two's-complement
// wraparound makes each prefix difference bit-identical to direct per-row
// accumulation.
//
//rpbeat:allocfree
func (p *Params) ClassifySparseInto(s *rp.SparseMatrix, v []int32, alpha fixp.AlphaQ15, code []uint64, pre []int32) nfc.Decision {
	if s.K != p.K || len(v) != s.D || len(code) != Words(p.K) {
		panic("bitemb: ClassifySparseInto dimension mismatch")
	}
	np, nn := len(s.Pos), len(s.Neg)
	if len(pre) < np+nn+2 {
		panic("bitemb: ClassifySparseInto prefix scratch too small")
	}
	prePos := pre[: np+1 : np+1]
	preNeg := pre[np+1 : np+nn+2]
	var run int32
	prePos[0] = 0
	pp := prePos[1:]
	for i, c := range s.Pos {
		run += v[c]
		pp[i] = run
	}
	run = 0
	preNeg[0] = 0
	pn := preNeg[1:]
	for i, c := range s.Neg {
		run += v[c]
		pn[i] = run
	}
	var word uint64
	wi := 0
	for r := 0; r < s.K; r++ {
		acc := prePos[s.PosStart[r+1]] - prePos[s.PosStart[r]] -
			preNeg[s.NegStart[r+1]] + preNeg[s.NegStart[r]]
		word |= uint64((^uint32(acc-p.Thresholds[r]))>>31) << uint(r&63)
		if r&63 == 63 {
			code[wi] = word
			word = 0
			wi++
		}
	}
	if p.K&63 != 0 {
		code[wi] = word
	}
	return p.ClassifyCode(code, alpha)
}
