package core

import (
	"errors"
	"fmt"

	"rpbeat/internal/beatset"
	"rpbeat/internal/bitemb"
	"rpbeat/internal/fixp"
	"rpbeat/internal/metrics"
	"rpbeat/internal/nfc"
	"rpbeat/internal/rp"
)

// Embedded is the WBSN-ready classifier produced from a trained Model: the
// 2-bit packed projection matrix, one integer head (quantized membership
// functions for KindFuzzy, thresholds + packed prototypes for KindBitemb) and
// the Q15 defuzzification coefficient. Everything it executes at
// classification time is integer arithmetic.
type Embedded struct {
	Kind       Kind
	K, D       int
	Downsample int
	P          *rp.PackedMatrix
	// S is the sparse (non-zero index) form of P, the projection kernel the
	// host-side hot path uses: bit-identical to P's, ~d/3 additions per
	// coefficient instead of d element decodes. Quantize derives it from P.
	// Never serialized (P is the ROM image).
	S *rp.SparseMatrix
	// Cls is the quantized fuzzy head; nil for KindBitemb.
	Cls *fixp.Classifier
	// Bit is the binary embedding head; nil for KindFuzzy. It needs no
	// quantization: its thresholds are already in the node's integer units.
	Bit *bitemb.Params
	// AlphaTest is the run-time defuzzification coefficient. It starts as
	// the quantized α_train but can be retuned independently (Sec. III-B:
	// "it is possible to tune the defuzzification coefficient α_test
	// independently of the α_train chosen during the training phase").
	AlphaTest fixp.AlphaQ15
}

// Scratch holds the caller-owned per-beat buffers ClassifyInto writes into.
// One Scratch serves models of either kind: Grow sizes whichever buffers the
// model's head needs, never shrinking, so a Scratch can be reused across
// models of different kinds and dimensions (the Engine's per-stream reuse
// pattern).
type Scratch struct {
	U      []int32  // projected coefficients, K
	Grades []uint16 // fuzzy membership grades, Cls.GradeBufLen() (fuzzy only)
	Code   []uint64 // packed embedding bits, bitemb.Words(K) (bitemb only)
	Pre    []int32  // fused-kernel prefix sums, bitemb.PreLen(S) (bitemb only)
}

// NewScratch allocates scratch sized for e.
func NewScratch(e *Embedded) *Scratch {
	s := &Scratch{}
	s.Grow(e)
	return s
}

// Grow ensures the scratch is large enough for e, reallocating only buffers
// that are too small.
func (s *Scratch) Grow(e *Embedded) {
	if len(s.U) < e.K {
		s.U = make([]int32, e.K)
	}
	if e.Cls != nil {
		if n := e.Cls.GradeBufLen(); len(s.Grades) < n {
			s.Grades = make([]uint16, n)
		}
	}
	if e.Bit != nil {
		if n := bitemb.Words(e.Bit.K); len(s.Code) < n {
			s.Code = make([]uint64, n)
		}
		if n := bitemb.PreLen(e.S); len(s.Pre) < n {
			s.Pre = make([]int32, n)
		}
	}
}

// Quantize converts the model for embedded execution with the given
// membership shape (MFLinear for deployment; MFTriangular and MFGaussianRef
// exist for the Figure 4/5 comparisons). For KindBitemb models the shape is
// irrelevant — the binary head has no membership functions to quantize — and
// is ignored.
func (m *Model) Quantize(kind fixp.MFKind) (*Embedded, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e := &Embedded{
		Kind:       m.Kind,
		K:          m.K,
		D:          m.D,
		Downsample: m.Downsample,
		P:          rp.Pack(m.P),
		S:          rp.NewSparse(m.P),
		AlphaTest:  fixp.AlphaToQ15(m.AlphaTrain),
	}
	switch m.Kind {
	case KindFuzzy:
		cls, err := fixp.Quantize(m.MF, kind)
		if err != nil {
			return nil, err
		}
		e.Cls = cls
	case KindBitemb:
		e.Bit = m.Bit
	}
	return e, nil
}

// Validate checks structural consistency.
func (e *Embedded) Validate() error {
	if e.P == nil {
		return errors.New("core: embedded model missing projection")
	}
	if e.P.K != e.K || e.P.D != e.D {
		return fmt.Errorf("core: embedded dimensions inconsistent (K=%d D=%d, P %dx%d)",
			e.K, e.D, e.P.K, e.P.D)
	}
	switch e.Kind {
	case KindFuzzy:
		if e.Cls == nil {
			return errors.New("core: embedded fuzzy model missing classifier")
		}
		if e.Bit != nil {
			return errors.New("core: embedded fuzzy model carries a binary head")
		}
		if err := e.Cls.Validate(); err != nil {
			return err
		}
		if e.Cls.K != e.K {
			return fmt.Errorf("core: classifier K=%d does not match K=%d", e.Cls.K, e.K)
		}
	case KindBitemb:
		if e.Bit == nil {
			return errors.New("core: embedded bitemb model missing head")
		}
		if e.Cls != nil {
			return errors.New("core: embedded bitemb model carries a fuzzy classifier")
		}
		if err := e.Bit.Validate(); err != nil {
			return err
		}
		if e.Bit.K != e.K {
			return fmt.Errorf("core: binary head K=%d does not match K=%d", e.Bit.K, e.K)
		}
	default:
		return fmt.Errorf("core: unknown embedded model kind %d", e.Kind)
	}
	if e.S == nil {
		return errors.New("core: embedded model missing sparse projection")
	}
	if e.S.K != e.K || e.S.D != e.D {
		return fmt.Errorf("core: sparse projection %dx%d does not match K=%d D=%d",
			e.S.K, e.S.D, e.K, e.D)
	}
	return e.S.Validate()
}

// ProjectIntInto runs the integer projection through the sparse kernel into
// a caller-owned slice of length K, bit-identical to the packed P's.
//
//rpbeat:allocfree
func (e *Embedded) ProjectIntInto(window []int32, u []int32) {
	e.S.ProjectIntInto(window, u)
}

// Classify runs the integer pipeline on one beat window of int32 ADC counts
// (already downsampled to length D). It allocates scratch per call; hot
// paths should hold a Scratch and use ClassifyInto.
func (e *Embedded) Classify(window []int32) nfc.Decision {
	return e.ClassifyInto(window, NewScratch(e))
}

// ClassifyInto is Classify with caller-provided scratch (sized by Grow) —
// the zero-allocation per-beat path that pipeline.Pipeline and the serving
// layer run. It dispatches on the model's head: fuzzification + Q15
// defuzzification for KindFuzzy, the fused project+threshold+popcount kernel
// for KindBitemb.
//
//rpbeat:allocfree
func (e *Embedded) ClassifyInto(window []int32, s *Scratch) nfc.Decision {
	if e.Bit != nil {
		code := s.Code[:bitemb.Words(e.K)]
		return e.Bit.ClassifySparseInto(e.S, window, e.AlphaTest, code, s.Pre)
	}
	u := s.U[:e.K]
	e.ProjectIntInto(window, u)
	return e.Cls.ClassifyInto(u, e.AlphaTest, s.Grades[:e.Cls.GradeBufLen()])
}

// Evaluate runs the integer pipeline over the indexed beats, returning
// per-beat fuzzy values (converted to float64 for the shared metrics
// machinery; ratios are what matters and they carry over exactly). For
// bitemb models F is the similarity vector K - dist, the same values the α
// calibration was derived over.
func (e *Embedded) Evaluate(ds *beatset.Dataset, idx []int) []metrics.Eval {
	labels := ds.Labels(idx)
	evals := make([]metrics.Eval, len(idx))
	s := NewScratch(e)
	u := s.U[:e.K]
	for i, b := range idx {
		w := ds.IntWindow(b, e.Downsample)
		e.ProjectIntInto(w, u)
		var fv [nfc.NumClasses]uint32
		if e.Bit != nil {
			code := s.Code[:bitemb.Words(e.K)]
			e.Bit.PackInto(u, code)
			fv = e.Bit.Similarity(code)
		} else {
			fv = e.Cls.FuzzyValues(u, s.Grades[:e.Cls.GradeBufLen()])
		}
		evals[i] = metrics.Eval{
			Label: labels[i],
			F: [nfc.NumClasses]float64{
				float64(fv[0]), float64(fv[1]), float64(fv[2]),
			},
		}
	}
	return evals
}

// MemoryBytes reports the data footprint the node must hold: the packed
// projection matrix plus the head's parameter tables. The host-side sparse
// kernel is not part of it — see HostBytes.
func (e *Embedded) MemoryBytes() int {
	n := e.P.ByteSize()
	if e.Cls != nil {
		n += e.Cls.TableBytes()
	}
	if e.Bit != nil {
		n += e.Bit.TableBytes()
	}
	return n
}

// HostBytes reports the server-side data footprint: the node tables plus
// the sparse projection form the host hot path actually runs. This is the
// per-model figure capacity planning for a many-streams Engine should use.
func (e *Embedded) HostBytes() int {
	return e.MemoryBytes() + e.S.ByteSize()
}
