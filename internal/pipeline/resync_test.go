package pipeline

// The deterministic-resume contract behind gateway failover: a fresh
// pipeline opened with Config.BaseSample = B and fed the original samples
// from B onward must emit beats bit-identical to the uninterrupted run for
// every beat past B + ResyncWarmup. TestPipelineResyncBitIdentity sweeps
// failure points across threshold-window phases (the alignment machinery's
// hard part); TestPipelineResyncWindowSweep probes replay windows around the
// exported bound — W resyncs exactly, W-1 may diverge but must stay sane
// (monotone, classified, within the stream).

import (
	"fmt"
	"testing"

	"rpbeat/internal/ecgsyn"
)

// pushAll streams lead through p and returns every emitted beat (flush
// included when flush is set).
func pushAll(t *testing.T, p *Pipeline, lead []int32, flush bool) []BeatResult {
	t.Helper()
	var out []BeatResult
	for _, s := range lead {
		out = append(out, pushOne(p, s)...)
	}
	if flush {
		out = append(out, p.Flush()...)
	}
	return out
}

// beatsAfter filters beats with Peak strictly greater than watermark.
func beatsAfter(beats []BeatResult, watermark int) []BeatResult {
	var out []BeatResult
	for _, b := range beats {
		if b.Peak > watermark {
			out = append(out, b)
		}
	}
	return out
}

func TestPipelineResyncBitIdentity(t *testing.T) {
	emb := testModel(t)
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{
		Name: "resync", Seconds: 60, Seed: 17, PVCRate: 0.1,
	}).Leads[0]

	full, err := New(emb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref := pushAll(t, full, lead, true)
	if len(ref) < 20 {
		t.Fatalf("reference run found only %d beats", len(ref))
	}
	warm := ResyncWarmup(Config{})
	if warm <= full.Delay() {
		t.Fatalf("ResyncWarmup %d should exceed the pipeline delay %d", warm, full.Delay())
	}

	// Failure points spread across the record and, via the +offset, across
	// threshold-window phases — alignment must not depend on where the
	// stream tore.
	win := 720 // 2 s at 360 Hz, the detector's default threshold window
	for _, fail := range []int{warm + 5000, len(lead) / 2, len(lead)/2 + win/3, len(lead)/2 + 1, len(lead) - warm - 2000} {
		t.Run(fmt.Sprintf("fail_at_%d", fail), func(t *testing.T) {
			base := fail - warm
			if base < 0 {
				t.Fatalf("failure point %d inside the warm-up", fail)
			}
			// The watermark is the last beat the original run delivered by
			// the time sample `fail` had been consumed — exactly what the
			// gateway knows at failover time.
			watermark := -1
			for _, b := range ref {
				if b.DetectedAt < fail {
					watermark = b.Peak
				}
			}

			resumed, err := New(emb, Config{BaseSample: base})
			if err != nil {
				t.Fatal(err)
			}
			got := beatsAfter(pushAll(t, resumed, lead[base:], true), watermark)
			want := beatsAfter(ref, watermark)
			if len(got) != len(want) {
				t.Fatalf("resumed run emits %d beats past watermark %d, reference %d",
					len(got), watermark, len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("beat %d diverges: resumed %+v, reference %+v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestPipelineResyncWindowSweep(t *testing.T) {
	emb := testModel(t)
	lead := ecgsyn.Synthesize(ecgsyn.RecordSpec{
		Name: "resync-sweep", Seconds: 45, Seed: 23, PVCRate: 0.1,
	}).Leads[0]

	full, err := New(emb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref := pushAll(t, full, lead, true)
	warm := ResyncWarmup(Config{})
	fail := len(lead) * 2 / 3
	watermark := -1
	for _, b := range ref {
		if b.DetectedAt < fail {
			watermark = b.Peak
		}
	}

	for _, tc := range []struct {
		name   string
		window int
		exact  bool // replay window >= W: suffix must be bit-identical
	}{
		{"warmup", warm, true},
		{"warmup_minus_1", warm - 1, false},
		{"half_warmup", warm / 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := fail - tc.window
			resumed, err := New(emb, Config{BaseSample: base})
			if err != nil {
				t.Fatal(err)
			}
			got := beatsAfter(pushAll(t, resumed, lead[base:], true), watermark)

			// Under-replay safety, window size regardless: positions stay
			// inside the stream and strictly monotone — a short journal may
			// lose resync exactness, never sanity.
			last := watermark
			for _, b := range got {
				if b.Peak <= last {
					t.Fatalf("non-monotone beat %+v after %d", b, last)
				}
				if b.Peak < base || b.Peak >= len(lead) {
					t.Fatalf("beat %+v outside the stream", b)
				}
				last = b.Peak
			}
			if !tc.exact {
				return
			}
			want := beatsAfter(ref, watermark)
			if len(got) != len(want) {
				t.Fatalf("replaying W=%d gives %d beats past watermark, reference %d",
					tc.window, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("beat %d diverges: %+v vs %+v", i, got[i], want[i])
				}
			}
		})
	}
}
