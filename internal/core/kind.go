package core

import "fmt"

// Kind discriminates the classifier head a model carries. The zero value is
// the paper's neuro-fuzzy head, so every pre-existing Model (and every v1
// serialized form) is KindFuzzy without migration.
type Kind uint8

const (
	// KindFuzzy is the neuro-fuzzy head: k×3 membership functions, product
	// fuzzification, Q15 defuzzification (the paper's classifier).
	KindFuzzy Kind = iota
	// KindBitemb is the binary adaptive embedding head: per-coefficient
	// thresholds, packed 1-bit codes, XOR+popcount Hamming classification
	// against per-class prototypes (internal/bitemb).
	KindBitemb
)

// String returns the kind's wire/manifest name.
func (k Kind) String() string {
	switch k {
	case KindFuzzy:
		return "fuzzy"
	case KindBitemb:
		return "bitemb"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}
