package wbsn

import (
	"testing"

	"rpbeat/internal/beatset"
	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/energy"
	"rpbeat/internal/fixp"
)

// trainedNode builds a node from a quick training run (cached per binary).
var cachedNode *Node

func trainedNode(t testing.TB) *Node {
	t.Helper()
	if cachedNode != nil {
		return cachedNode
	}
	ds, err := beatset.Build(beatset.Config{Seed: 21, Scale: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := core.Train(ds, core.Config{
		Coeffs: 8, Downsample: 4, PopSize: 6, Generations: 4,
		SCGIters: 60, MinARR: 0.95, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	emb, err := m.Quantize(fixp.MFLinear)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(emb)
	if err != nil {
		t.Fatal(err)
	}
	cachedNode = n
	return n
}

func record(seed uint64, seconds, pvcRate float64) [][]int32 {
	rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{
		Name: "w", Seconds: seconds, Seed: seed, PVCRate: pvcRate,
	})
	leads := make([][]int32, ecgsyn.NumLeads)
	for l := range leads {
		leads[l] = rec.Leads[l]
	}
	return leads
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(nil); err == nil {
		t.Fatal("nil classifier should error")
	}
}

func TestProcessEmptySignal(t *testing.T) {
	n := trainedNode(t)
	if _, err := n.Process(nil); err == nil {
		t.Fatal("empty signal should error")
	}
}

func TestProcessEndToEnd(t *testing.T) {
	n := trainedNode(t)
	res, err := n.Process(record(1, 120, 0.12))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Beats) < 100 {
		t.Fatalf("only %d beats processed in 120 s", len(res.Beats))
	}
	// Abnormal beats (including PVCs) should trigger delineation; the
	// activation rate must sit between the PVC rate and ~1.
	rate := float64(res.DelineatedBeats) / float64(len(res.Beats))
	if rate < 0.05 || rate > 0.8 {
		t.Fatalf("activation rate %.3f implausible", rate)
	}
	if res.DelineatedBeats == 0 {
		t.Fatal("no beats delineated despite PVCs present")
	}
}

func TestGatingConsistency(t *testing.T) {
	n := trainedNode(t)
	res, err := n.Process(record(2, 60, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range res.Beats {
		if b.Decision.Abnormal() != b.Delineated {
			t.Fatalf("beat %d: abnormal=%v but delineated=%v (gating broken)",
				i, b.Decision.Abnormal(), b.Delineated)
		}
		wantPayload := energy.PeakOnlyBytes
		if b.Decision.Abnormal() {
			wantPayload = energy.FullBeatBytes
		}
		if b.PayloadBytes != wantPayload {
			t.Fatalf("beat %d: payload %d, want %d", i, b.PayloadBytes, wantPayload)
		}
	}
}

func TestTrafficAccounting(t *testing.T) {
	n := trainedNode(t)
	res, err := n.Process(record(3, 60, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Traffic.Total() != len(res.Beats) {
		t.Fatalf("traffic total %d != %d beats", res.Traffic.Total(), len(res.Beats))
	}
	if res.Traffic.FullReports != res.DelineatedBeats {
		t.Fatalf("full reports %d != delineated %d", res.Traffic.FullReports, res.DelineatedBeats)
	}
	// The traffic must plug into the energy model.
	rep, err := energy.Analyze(energy.Params{
		Traffic: res.Traffic, StreamSeconds: 60, DutyGated: 0.2, DutyAlwaysOn: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RadioReduction <= 0 {
		t.Fatalf("no radio saving: %+v", rep)
	}
}

func TestDelineatedBeatsCarryFiducials(t *testing.T) {
	n := trainedNode(t)
	res, err := n.Process(record(4, 120, 0.15))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, b := range res.Beats {
		if !b.Delineated {
			continue
		}
		checked++
		if b.Fiducials.RPeak < 0 {
			t.Fatalf("delineated beat @%d has no R peak fiducial", b.Sample)
		}
	}
	if checked == 0 {
		t.Fatal("no delineated beats to check")
	}
}

func TestNormalOnlyRecordMostlyDiscarded(t *testing.T) {
	n := trainedNode(t)
	res, err := n.Process(record(5, 120, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rate := float64(res.DelineatedBeats) / float64(len(res.Beats)); rate > 0.5 {
		t.Fatalf("activation rate %.3f on an all-normal record (expected mostly discards)", rate)
	}
}
