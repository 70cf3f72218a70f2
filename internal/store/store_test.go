package store

import (
	"math"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, StoreAll); err == nil {
		t.Fatal("zero capacity should error")
	}
	if _, err := New(100, Policy(9)); err == nil {
		t.Fatal("unknown policy should error")
	}
}

func TestPolicyString(t *testing.T) {
	if StoreAll.String() != "store-all" || StoreAbnormal.String() != "store-abnormal" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy should format")
	}
}

func TestStoreAllConsumesFullRecords(t *testing.T) {
	s, err := New(10*FullBeatBytes, StoreAll)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !s.Add(i%3 == 0) {
			t.Fatalf("beat %d dropped with budget remaining", i)
		}
	}
	if !s.Add(false) == false {
		t.Fatal("11th beat should be dropped")
	}
	if s.full != 10 || s.markers != 0 || s.dropped != 1 {
		t.Fatalf("full=%d markers=%d dropped=%d", s.full, s.markers, s.dropped)
	}
	if s.used != 10*FullBeatBytes {
		t.Fatalf("used %d", s.used)
	}
}

func TestStoreAbnormalGates(t *testing.T) {
	s, err := New(FullBeatBytes+5*MarkerBytes, StoreAbnormal)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Add(true) { // abnormal: full record
		t.Fatal("abnormal beat dropped")
	}
	for i := 0; i < 5; i++ {
		if !s.Add(false) { // normals: markers
			t.Fatalf("marker %d dropped", i)
		}
	}
	if s.full != 1 || s.markers != 5 || s.dropped != 0 {
		t.Fatalf("full=%d markers=%d dropped=%d", s.full, s.markers, s.dropped)
	}
	if s.used != s.Capacity {
		t.Fatalf("used %d of %d bytes, want the whole budget", s.used, s.Capacity)
	}
	if s.Add(false) {
		t.Fatal("store should be full")
	}
}

func TestGatedPolicyExtendsEndurance(t *testing.T) {
	// With ~20% of beats stored in full, the gated store must hold several
	// times more recording time than store-all.
	allSec, gatedSec, err := Endurance(1<<20, 1.2, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	gain := gatedSec / allSec
	if gain < 3 || gain > 6 {
		t.Fatalf("endurance gain %.2fx, want the 4-5x regime for 20%% full reports", gain)
	}
}

func TestEnduranceEdgeCases(t *testing.T) {
	if _, _, err := Endurance(0, 1, 0.5); err == nil {
		t.Fatal("zero capacity should error")
	}
	if _, _, err := Endurance(100, 0, 0.5); err == nil {
		t.Fatal("zero beat rate should error")
	}
	if _, _, err := Endurance(100, 1, 1.5); err == nil {
		t.Fatal("fraction > 1 should error")
	}
	// fullFraction 1: both policies identical.
	a, g, err := Endurance(1<<20, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-g) > 1e-9 {
		t.Fatalf("at 100%% full reports the policies must match: %v vs %v", a, g)
	}
}

func TestSimulationMatchesEnduranceModel(t *testing.T) {
	// Fill a store with the Endurance model's assumptions and compare the
	// number of beats accommodated.
	capacity := 256 * 1024
	fullFrac := 0.2
	s, err := New(capacity, StoreAbnormal)
	if err != nil {
		t.Fatal(err)
	}
	beats := 0
	for i := 0; ; i++ {
		abnormal := i%5 == 0 // exactly 20%
		if !s.Add(abnormal) {
			break
		}
		beats++
	}
	allSec, gatedSec, err := Endurance(capacity, 1.0, fullFrac)
	if err != nil {
		t.Fatal(err)
	}
	_ = allSec
	if diff := math.Abs(float64(beats) - gatedSec); diff > 0.01*gatedSec {
		t.Fatalf("simulated %d beats, model predicts %.0f", beats, gatedSec)
	}
}
