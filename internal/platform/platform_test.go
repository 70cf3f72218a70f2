package platform

import (
	"strings"
	"testing"
)

func TestOpCountAlgebra(t *testing.T) {
	a := OpCount{Add: 1, Mul: 2, Load: 3}
	b := OpCount{Add: 10, Store: 5}
	s := a.Plus(b)
	if s.Add != 11 || s.Mul != 2 || s.Load != 3 || s.Store != 5 {
		t.Fatalf("plus: %+v", s)
	}
	d := a.Times(3)
	if d.Add != 3 || d.Mul != 6 || d.Load != 9 {
		t.Fatalf("times: %+v", d)
	}
}

func TestCycleModel(t *testing.T) {
	m := Icyflex()
	if m.ClockHz != 6e6 {
		t.Fatalf("clock %v", m.ClockHz)
	}
	c := m.Cycles(OpCount{Add: 10, Div: 1, Load: 5})
	if c != 10+35+10 {
		t.Fatalf("cycles = %v", c)
	}
	duty := m.DutyCycle(OpCount{Add: 6_000_000})
	if duty != 1.0 {
		t.Fatalf("duty = %v", duty)
	}
}

func TestClassifierOpsTiny(t *testing.T) {
	// The paper's headline: the classifier itself must cost a negligible
	// fraction of the 6 MHz budget (< 0.01 duty).
	m := Icyflex()
	duty := m.DutyCycle(ClassifierOps(8, 50, 1.2))
	if duty >= 0.01 {
		t.Fatalf("classifier duty = %v, want < 0.01", duty)
	}
	if duty <= 0 {
		t.Fatal("classifier duty must be positive")
	}
}

func TestStageOrdering(t *testing.T) {
	// Structural property of Table III: classifier << filter+peak <
	// delineation side.
	m := Icyflex()
	cls := m.DutyCycle(ClassifierOps(8, 50, 1.2))
	f1 := m.DutyCycle(FilterOps(360).Plus(PeakOps(360)))
	d3 := m.DutyCycle(FilterOps(360).Times(3).Plus(PeakOps(360)).Plus(DelineationOps(360, 3, 1.2)))
	if !(cls < f1/10) {
		t.Fatalf("classifier (%.4f) not an order below front end (%.4f)", cls, f1)
	}
	if !(d3 > 2*f1) {
		t.Fatalf("delineation side (%.4f) not dominant over front end (%.4f)", d3, f1)
	}
}

func TestTableIIIShape(t *testing.T) {
	rows := TableIII(SystemParams{
		Fs: 360, BeatsPerSec: 1.2, ActivationRate: 0.22,
		K: 8, D: 50, ClassifierData: 784, Leads: 3,
		Model: Icyflex(),
	})
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	cls, sub1, sub2, sys3 := rows[0], rows[1], rows[2], rows[3]
	if cls.Duty >= 0.01 {
		t.Fatalf("classifier duty %v", cls.Duty)
	}
	if !(sub1.Duty > cls.Duty && sub2.Duty > sub1.Duty) {
		t.Fatalf("duty ordering broken: %v %v %v", cls.Duty, sub1.Duty, sub2.Duty)
	}
	// The headline claim: selective activation makes system (3) much
	// cheaper than always-on delineation.
	reduction := 1 - sys3.Duty/sub2.Duty
	if reduction < 0.35 {
		t.Fatalf("duty reduction %.2f, want the >= 35%% regime of the paper's 63%%", reduction)
	}
	// Code sizes: classifier small, totals additive like the paper's table.
	if cls.CodeBytes > 2*1024 {
		t.Fatalf("classifier footprint %d B, want <= 2 KB", cls.CodeBytes)
	}
	if sys3.CodeBytes != sub1.CodeBytes+sub2.CodeBytes {
		t.Fatal("system(3) code must be the sum of the two sub-systems")
	}
	if !FitsRAM(sys3.CodeBytes) {
		t.Fatalf("system(3) %d B exceeds the 96 KB SoC budget", sys3.CodeBytes)
	}
}

func TestSystem3DutyDecomposition(t *testing.T) {
	// duty(3) must equal duty(1) + rate * duty(delineation side incl. the
	// two extra filtered leads); verify against an independent computation.
	p := SystemParams{
		Fs: 360, BeatsPerSec: 1.2, ActivationRate: 0.25,
		K: 8, D: 50, ClassifierData: 784, Leads: 3, Model: Icyflex(),
	}
	rows := TableIII(p)
	m := p.Model
	extra := FilterOps(360).Times(2).Plus(DelineationOps(360, 3, 1.2))
	want := rows[1].Duty + 0.25*m.DutyCycle(extra)
	if diff := rows[3].Duty - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("system(3) duty %v, want %v", rows[3].Duty, want)
	}
}

func TestActivationRateMonotone(t *testing.T) {
	base := SystemParams{
		Fs: 360, BeatsPerSec: 1.2,
		K: 8, D: 50, ClassifierData: 784, Leads: 3, Model: Icyflex(),
	}
	prev := -1.0
	for _, rate := range []float64{0.05, 0.2, 0.5, 0.8, 1.0} {
		p := base
		p.ActivationRate = rate
		rows := TableIII(p)
		if rows[3].Duty <= prev {
			t.Fatalf("system(3) duty not increasing with activation rate at %v", rate)
		}
		prev = rows[3].Duty
	}
	// At rate 1.0 the proposed system must cost at least as much as the
	// always-on delineator (it also runs the classifier).
	p := base
	p.ActivationRate = 1.0
	rows := TableIII(p)
	if rows[3].Duty < rows[2].Duty {
		t.Fatalf("at 100%% activation, system(3) (%.4f) cheaper than always-on (%.4f)",
			rows[3].Duty, rows[2].Duty)
	}
}

func TestStageReportString(t *testing.T) {
	r := StageReport{Name: "RP-classifier", CodeBytes: 1644, Duty: 0.004}
	s := r.String()
	if !strings.Contains(s, "< 0.01") {
		t.Fatalf("tiny duty should print as < 0.01: %q", s)
	}
	r.Duty = 0.12
	if !strings.Contains(r.String(), "0.12") {
		t.Fatalf("duty formatting: %q", r.String())
	}
}

func TestScaleFracRounds(t *testing.T) {
	o := scaleFrac(OpCount{Add: 10}, 0.25)
	if o.Add != 3 { // 2.5 rounds to 3
		t.Fatalf("scaled add = %d", o.Add)
	}
}

func TestFitsRAM(t *testing.T) {
	if !FitsRAM(96 * 1024) {
		t.Fatal("exactly 96 KB should fit")
	}
	if FitsRAM(96*1024 + 1) {
		t.Fatal("over budget should not fit")
	}
}
