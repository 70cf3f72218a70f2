package rpbeat

// Cross-module integration tests: the paths a deployment would exercise,
// including the on-disk WFDB round trip that cmd/rpgen + cmd/rpclassify use.

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"rpbeat/internal/beatset"
	"rpbeat/internal/core"
	"rpbeat/internal/delin"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/fixp"
	"rpbeat/internal/peak"
	"rpbeat/internal/sigdsp"
	"rpbeat/internal/wfdb"
)

// synthToWFDB writes a synthetic record to disk and loads it back.
func synthToWFDB(t *testing.T, spec ecgsyn.RecordSpec) (*ecgsyn.Record, *wfdb.Record) {
	t.Helper()
	rec := ecgsyn.Synthesize(spec)
	w := &wfdb.Record{
		Name: rec.Name, Fs: rec.Fs, Gain: ecgsyn.Gain, ADCZero: ecgsyn.Baseline,
		Descriptions: []string{"MLII", "I", "V1"},
	}
	for l := 0; l < ecgsyn.NumLeads; l++ {
		w.Signals = append(w.Signals, rec.Leads[l])
	}
	for _, a := range rec.Ann {
		code := wfdb.CodeNormal
		switch a.Class {
		case ecgsyn.ClassL:
			code = wfdb.CodeLBBB
		case ecgsyn.ClassV:
			code = wfdb.CodePVC
		}
		w.Ann = append(w.Ann, wfdb.Ann{Sample: a.Sample, Code: code})
	}
	dir := t.TempDir()
	if err := wfdb.Save(dir, w); err != nil {
		t.Fatal(err)
	}
	loaded, err := wfdb.Load(dir, rec.Name)
	if err != nil {
		t.Fatal(err)
	}
	return rec, loaded
}

func TestIntegration_SynthWFDBRoundTripPreservesEverything(t *testing.T) {
	rec, loaded := synthToWFDB(t, ecgsyn.RecordSpec{Name: "i100", Seconds: 60, Seed: 1, PVCRate: 0.1})
	if len(loaded.Signals) != ecgsyn.NumLeads {
		t.Fatalf("%d signals after round trip", len(loaded.Signals))
	}
	for l := 0; l < ecgsyn.NumLeads; l++ {
		for i := range rec.Leads[l] {
			if loaded.Signals[l][i] != rec.Leads[l][i] {
				t.Fatalf("lead %d sample %d corrupted by the codec", l, i)
			}
		}
	}
	if len(loaded.Ann) != len(rec.Ann) {
		t.Fatalf("annotations %d != %d", len(loaded.Ann), len(rec.Ann))
	}
	for i, a := range rec.Ann {
		if loaded.Ann[i].Sample != a.Sample {
			t.Fatalf("annotation %d moved", i)
		}
	}
}

func TestIntegration_DetectorOnDiskedRecord(t *testing.T) {
	// Full front end on a record that went through the on-disk format.
	_, loaded := synthToWFDB(t, ecgsyn.RecordSpec{Name: "i101", Seconds: 120, Seed: 2})
	mv := make([]float64, len(loaded.Signals[0]))
	for i, v := range loaded.Signals[0] {
		mv[i] = float64(v-loaded.ADCZero) / loaded.Gain
	}
	filtered := sigdsp.FilterECG(mv, sigdsp.DefaultBaselineConfig(loaded.Fs))
	det := peak.Detect(filtered, peak.Config{Fs: loaded.Fs})
	var ref []int
	for _, a := range loaded.Ann {
		ref = append(ref, a.Sample)
	}
	tp, _, fn := peak.Match(det, ref, 18)
	if se := float64(tp) / float64(tp+fn); se < 0.95 {
		t.Fatalf("sensitivity %.3f through the disk round trip", se)
	}
}

func TestIntegration_TrainSaveLoadClassify(t *testing.T) {
	// Train -> serialize (both formats) -> deserialize -> quantize ->
	// classify a disked record: the rptrain + rpclassify path.
	ds, err := beatset.Build(beatset.Config{Seed: 31, Scale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := core.Train(ds, core.Config{
		Coeffs: 8, Downsample: 4, PopSize: 4, Generations: 2,
		SCGIters: 50, MinARR: 0.9, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	// JSON round trip.
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var viaJSON core.Model
	if err := json.Unmarshal(data, &viaJSON); err != nil {
		t.Fatal(err)
	}
	// Binary round trip.
	var buf bytes.Buffer
	if err := m.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	viaBin, err := core.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}

	_, loaded := synthToWFDB(t, ecgsyn.RecordSpec{Name: "i102", Seconds: 60, Seed: 3, PVCRate: 0.15})
	mv := make([]float64, len(loaded.Signals[0]))
	for i, v := range loaded.Signals[0] {
		mv[i] = float64(v-loaded.ADCZero) / loaded.Gain
	}
	filtered := sigdsp.FilterECG(mv, sigdsp.DefaultBaselineConfig(loaded.Fs))
	peaks := peak.Detect(filtered, peak.Config{Fs: loaded.Fs})
	if len(peaks) == 0 {
		t.Fatal("no beats detected")
	}

	embA, err := viaJSON.Quantize(fixp.MFLinear)
	if err != nil {
		t.Fatal(err)
	}
	embB, err := viaBin.Quantize(fixp.MFLinear)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range peaks {
		w := sigdsp.WindowInt(loaded.Signals[0], p, 100, 100)
		w = sigdsp.DownsampleInt(w, embA.Downsample)
		da := embA.Classify(w)
		db := embB.Classify(w)
		if da != db {
			t.Fatalf("JSON- and binary-loaded models disagree at %d: %v vs %v", p, da, db)
		}
	}
}

func TestIntegration_GatedDelineationTargetsAbnormalBeats(t *testing.T) {
	// On a PVC-rich record, the fraction of PVC annotations whose windows
	// classify abnormal should far exceed the false-alarm rate on normals;
	// delineation of those beats must produce QRS boundaries around each.
	ds, err := beatset.Build(beatset.Config{Seed: 33, Scale: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := core.Train(ds, core.Config{
		Coeffs: 8, Downsample: 4, PopSize: 6, Generations: 4,
		SCGIters: 60, MinARR: 0.95, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	emb, err := m.Quantize(fixp.MFLinear)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := synthToWFDB(t, ecgsyn.RecordSpec{Name: "i103", Seconds: 300, Seed: 5, PVCRate: 0.2})

	mv := rec.LeadMillivolts(0)
	filtered := sigdsp.FilterECG(mv, sigdsp.DefaultBaselineConfig(rec.Fs))
	var flaggedV, totalV, flaggedN, totalN int
	var abnormalPeaks []int
	for _, a := range rec.Ann {
		if a.Sample < 120 || a.Sample > len(mv)-120 {
			continue
		}
		w := sigdsp.WindowInt(rec.Leads[0], a.Sample, 100, 100)
		w = sigdsp.DownsampleInt(w, emb.Downsample)
		d := emb.Classify(w)
		if a.Class == ecgsyn.ClassV {
			totalV++
			if d.Abnormal() {
				flaggedV++
				abnormalPeaks = append(abnormalPeaks, a.Sample)
			}
		} else {
			totalN++
			if d.Abnormal() {
				flaggedN++
			}
		}
	}
	if totalV == 0 {
		t.Fatal("no PVCs in record")
	}
	vRate := float64(flaggedV) / float64(totalV)
	nRate := float64(flaggedN) / float64(totalN)
	if vRate < 0.8 {
		t.Fatalf("only %.1f%% of PVCs flagged", 100*vRate)
	}
	if nRate > vRate/2 {
		t.Fatalf("normal false-alarm rate %.2f too close to PVC rate %.2f", nRate, vRate)
	}
	fids := delin.DelineateMultiLead([][]float64{filtered}, abnormalPeaks, delin.Config{Fs: rec.Fs})
	for i, f := range fids {
		if f.QRSOn < 0 || f.QRSOff < 0 {
			t.Fatalf("flagged beat %d missing QRS boundaries", i)
		}
	}
}

// TestIntegration_BenchmarkModelsReproduce retrains both of the benchmark's
// served models with the rptrain settings benchmark/WORKLOADS.md documents
// and encodes them as rptrain does: the bytes must equal the committed
// benchmark/models files, which this test only reads. It holds the trained
// models identical across changes to the training code, which comparing two
// runs inside one binary cannot.
func TestIntegration_BenchmarkModelsReproduce(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the models were trained on amd64; other architectures may fuse float multiply-adds, which changes the SCG training")
	}
	ds, err := beatset.Build(beatset.Config{Seed: 20130, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []core.Kind{core.KindFuzzy, core.KindBitemb} {
		m, _, err := core.Train(ds, core.Config{
			Kind: kind, Coeffs: 8, Downsample: 4, PopSize: 10, Generations: 6,
			MinARR: 0.9, Seed: 20130,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		var got bytes.Buffer
		enc := json.NewEncoder(&got)
		enc.SetIndent("", " ")
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
		path := "benchmark/models/" + kind.String() + ".json"
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%v: the retrained model (%d B) differs from %s (%d B)", kind, got.Len(), path, len(want))
		}
	}
}
