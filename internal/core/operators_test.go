package core

import (
	"testing"
	"testing/quick"

	"rpbeat/internal/rng"
	"rpbeat/internal/rp"
)

func TestCrossoverKeepsMatrixValid(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := rp.NewRandom(r, 8, 50)
		b := rp.NewRandom(r, 8, 50)
		child := crossoverMatrices(r, a, b)
		return child.Validate() == nil && child.K == 8 && child.D == 50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCrossoverInheritsWholeRows(t *testing.T) {
	r := rng.New(1)
	a := rp.NewRandom(r, 6, 40)
	b := rp.NewRandom(r, 6, 40)
	child := crossoverMatrices(r, a, b)
	for row := 0; row < 6; row++ {
		fromA, fromB := true, true
		for c := 0; c < 40; c++ {
			i := row*40 + c
			if child.El[i] != a.El[i] {
				fromA = false
			}
			if child.El[i] != b.El[i] {
				fromB = false
			}
		}
		if !fromA && !fromB {
			t.Fatalf("row %d is a mixture, want whole-row inheritance", row)
		}
	}
}

func TestCrossoverDoesNotMutateParents(t *testing.T) {
	r := rng.New(2)
	a := rp.NewRandom(r, 4, 20)
	b := rp.NewRandom(r, 4, 20)
	aCopy := a.Clone()
	bCopy := b.Clone()
	_ = crossoverMatrices(r, a, b)
	for i := range a.El {
		if a.El[i] != aCopy.El[i] || b.El[i] != bCopy.El[i] {
			t.Fatal("crossover mutated a parent")
		}
	}
}

func TestMutateKeepsMatrixValid(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := rp.NewRandom(r, 8, 50)
		out := mutateMatrix(r, m, 0.1)
		return out.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMutateRateControlsChanges(t *testing.T) {
	r := rng.New(3)
	m := rp.NewRandom(r, 8, 200)
	count := func(rate float64) int {
		out := mutateMatrix(rng.New(9), m, rate)
		diff := 0
		for i := range m.El {
			if m.El[i] != out.El[i] {
				diff++
			}
		}
		return diff
	}
	zero := count(0)
	low := count(0.02)
	high := count(0.5)
	if zero != 0 {
		t.Fatalf("rate 0 changed %d elements", zero)
	}
	if !(low < high) {
		t.Fatalf("rate ordering violated: %d (0.02) vs %d (0.5)", low, high)
	}
	// At rate 0.02 over 1600 elements, resampling changes an element with
	// probability 0.02*(2/3 of draws differ on average) — expect a handful.
	if low == 0 || low > 120 {
		t.Fatalf("rate 0.02 changed %d elements, implausible", low)
	}
}

func TestMutateDoesNotAliasInput(t *testing.T) {
	r := rng.New(4)
	m := rp.NewRandom(r, 4, 30)
	copyBefore := m.Clone()
	_ = mutateMatrix(r, m, 0.9)
	for i := range m.El {
		if m.El[i] != copyBefore.El[i] {
			t.Fatal("mutate modified its input")
		}
	}
}
