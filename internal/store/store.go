// Package store models on-node beat storage, the second exploitation
// scenario of the paper's introduction: "it can be desirable to transmit or
// store only pathological beats on the WBSN, greatly reducing either the
// energy employed for wireless transmission or the data storage
// requirements".
//
// A Store is a bounded byte budget (node flash or spare RAM) filled by beat
// records under one of two policies: the reference policy stores every beat
// in full, the gated policy stores full waveforms only for beats the
// classifier flagged abnormal and a 2-byte peak marker for discarded
// normals. The figure of merit is recording endurance: how many hours fit
// before the budget is exhausted.
package store

import (
	"errors"
	"fmt"
)

// Per-beat record sizes (bytes).
const (
	// FullBeatBytes stores the 200-sample window at 12 bits per sample
	// (packed in pairs like signal format 212) plus a 2-byte class tag.
	FullBeatBytes = 200*3/2 + 2
	// MarkerBytes stores only the peak position of a discarded normal.
	MarkerBytes = 2
)

// Policy selects what gets persisted.
type Policy uint8

const (
	// StoreAll persists every beat in full (the non-gated reference).
	StoreAll Policy = iota
	// StoreAbnormal persists abnormal beats in full and a marker for
	// normals (the classifier-gated policy).
	StoreAbnormal
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case StoreAll:
		return "store-all"
	case StoreAbnormal:
		return "store-abnormal"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// Store is a bounded beat archive.
type Store struct {
	Capacity int // bytes
	Policy   Policy

	used    int
	beats   int
	full    int
	markers int
	dropped int
}

// New builds a store with the given byte budget.
//
//rpvet:allow deadcode -- reference: TestSimulationMatchesEnduranceModel checks Endurance against the simulated store
func New(capacity int, policy Policy) (*Store, error) {
	if capacity <= 0 {
		return nil, errors.New("store: capacity must be positive")
	}
	if policy > StoreAbnormal {
		return nil, fmt.Errorf("store: unknown policy %d", policy)
	}
	return &Store{Capacity: capacity, Policy: policy}, nil
}

// Add records one beat. abnormal reports the classifier's verdict. It
// returns false when the budget is exhausted and the beat was dropped.
//
//rpvet:allow deadcode -- reference: TestSimulationMatchesEnduranceModel fills the simulated store beat by beat
func (s *Store) Add(abnormal bool) bool {
	s.beats++
	size := FullBeatBytes
	marker := false
	if s.Policy == StoreAbnormal && !abnormal {
		size = MarkerBytes
		marker = true
	}
	if s.used+size > s.Capacity {
		s.dropped++
		return false
	}
	s.used += size
	if marker {
		s.markers++
	} else {
		s.full++
	}
	return true
}

// Endurance estimates how many seconds of recording fit in a budget under
// each policy, given the mean beat rate and the fraction of beats the
// classifier stores in full (abnormal + false alarms). It is the planning
// counterpart of the Store simulation.
func Endurance(capacityBytes int, beatsPerSec, fullFraction float64) (allSec, gatedSec float64, err error) {
	if capacityBytes <= 0 || beatsPerSec <= 0 {
		return 0, 0, errors.New("store: capacity and beat rate must be positive")
	}
	if fullFraction < 0 || fullFraction > 1 {
		return 0, 0, errors.New("store: fullFraction outside [0,1]")
	}
	bytesPerBeatAll := float64(FullBeatBytes)
	bytesPerBeatGated := fullFraction*float64(FullBeatBytes) + (1-fullFraction)*float64(MarkerBytes)
	allSec = float64(capacityBytes) / (bytesPerBeatAll * beatsPerSec)
	gatedSec = float64(capacityBytes) / (bytesPerBeatGated * beatsPerSec)
	return allSec, gatedSec, nil
}
