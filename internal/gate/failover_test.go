package gate

// Gate-level resync conformance: a deterministic downlink kill mid-stream,
// injected by the faultinject transport, must be invisible at the relay
// window the design promises. With the journal window at or above
// pipeline.ResyncWarmup the whole relayed body — beats delivered before the
// kill, beats regenerated by the successor after it, and the rewritten done
// line — is byte-identical to an uninterrupted direct-to-backend run, for
// both uplink encodings. One sample below the bound the stream must still
// be safe (no error line, no torn line, no lost or duplicated beat) even
// where bit-identity is no longer guaranteed. Run under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"rpbeat/internal/faultinject"
	"rpbeat/internal/pipeline"
	"rpbeat/internal/serve"
	"rpbeat/internal/testutil"
	"rpbeat/internal/wire"
)

// streamFaulter faults only /v1/stream round trips, leaving health probes
// and catalog traffic clean — the fault budget is spent where the test
// aims it.
type streamFaulter struct {
	inner *faultinject.Transport
}

func (f *streamFaulter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/stream" {
		return f.inner.RoundTrip(req)
	}
	base := f.inner.Base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}

// binaryChunks encodes lead as consecutive binary frames of per samples.
func binaryChunks(t *testing.T, lead []int32, per int) []byte {
	t.Helper()
	var out []byte
	for i := 0; i < len(lead); i += per {
		end := min(i+per, len(lead))
		f, err := wire.AppendFrame(nil, lead[i:end])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f...)
	}
	return out
}

// postStream runs one whole /v1/stream request and returns the full NDJSON
// response body.
func postStream(t *testing.T, client *http.Client, url, ct string, body []byte) []byte {
	t.Helper()
	resp, err := client.Post(url+"/v1/stream", ct, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertStreamSafe parses a full NDJSON stream body and enforces the
// safety floor that holds at every window: every line terminated and JSON,
// no error line, strictly increasing beat samples, a final done line whose
// counts match what was delivered.
func assertStreamSafe(t *testing.T, body []byte, wantSamples int) {
	t.Helper()
	prev, beats := int64(-1), 0
	var done *streamLine
	for _, line := range bytes.SplitAfter(body, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if !bytes.HasSuffix(line, []byte("\n")) {
			t.Fatalf("torn line %q", line)
		}
		if e := errLine(line); e != nil {
			t.Fatalf("error line leaked through failover: %q", line)
		}
		var sl streamLine
		if err := json.Unmarshal(line, &sl); err != nil {
			t.Fatalf("non-JSON line %q: %v", line, err)
		}
		if sl.Done {
			done = &sl
			continue
		}
		if done != nil {
			t.Fatalf("line after done: %q", line)
		}
		beats++
		if sl.Sample <= prev {
			t.Fatalf("beat sample %d after %d — beat lost or duplicated", sl.Sample, prev)
		}
		prev = sl.Sample
	}
	if done == nil {
		t.Fatal("stream ended without a done line")
	}
	if beats == 0 {
		t.Fatal("stream delivered no beats")
	}
	if done.Beats != beats {
		t.Fatalf("done reports %d beats, stream delivered %d", done.Beats, beats)
	}
	if done.Samples != wantSamples {
		t.Fatalf("done reports %d samples, record has %d", done.Samples, wantSamples)
	}
}

// TestGateFailoverResyncBitIdentity is the resync sweep around the exact
// warm-up bound, at the gateway layer: per-sample journal entries make the
// replay depth exactly the configured window, a kill-after-bytes fault on
// the first backend's downlink forces one failover mid-response, and the
// relayed body is compared byte for byte against a direct uninterrupted
// run. window = warmup (and above) must be bit-identical; warmup-1 keeps
// only the safety floor.
func TestGateFailoverResyncBitIdentity(t *testing.T) {
	lead := testLead(30, 41)
	warm := pipeline.ResyncWarmup(pipeline.Config{})
	if warm >= len(lead) {
		t.Fatalf("test record (%d samples) does not cover the warm-up bound (%d)", len(lead), warm)
	}

	encodings := []struct {
		name string
		ct   string
		body func(per int) []byte
	}{
		{"binary", wire.ContentTypeSamples, func(per int) []byte { return binaryChunks(t, lead, per) }},
		{"ndjson", wire.ContentTypeNDJSON, func(per int) []byte { return ndjsonChunks(lead, per) }},
	}
	windows := []struct {
		name   string
		window int
		per    int // journal entry granularity in samples
		exact  bool
	}{
		{"window=warm", warm, 1, true},
		{"window=warm-1", warm - 1, 1, false},
		{"window=warm+1s", warm + 360, 36, true},
	}

	for _, enc := range encodings {
		for _, wc := range windows {
			t.Run(enc.name+"/"+wc.name, func(t *testing.T) {
				s := newGateStack(t, 3, serve.HandlerConfig{}, Config{})
				defer s.Close()
				s.gw.window = wc.window
				s.gw.CheckNow(context.Background())

				body := enc.body(wc.per)
				ref := postStream(t, s.backends[0].ts.Client(), s.backends[0].ts.URL, enc.ct, body)

				// Swap in a client whose first stream round trip dies
				// mid-downlink, half way through the reference body.
				s.gw.client = &http.Client{Transport: &streamFaulter{inner: &faultinject.Transport{
					Downlink: []faultinject.Fault{{
						Kind:   faultinject.KillAfterBytes,
						AtByte: int64(len(ref) / 2),
					}},
					Times: 1,
				}}}

				got := postStream(t, s.ts.Client(), s.ts.URL, enc.ct, body)
				assertStreamSafe(t, got, len(lead))
				if s.gw.Status().Failovers == 0 {
					t.Fatal("stream completed without the injected failover firing")
				}
				if wc.exact && !bytes.Equal(got, ref) {
					t.Fatalf("relayed body diverges from direct run at window %d\nrelayed %d bytes, direct %d bytes",
						wc.window, len(got), len(ref))
				}
			})
		}
	}
}

// TestJournalAppendZeroAlloc pins the relay's hot-path invariant: a
// steady-state journal cycle — append, the attempt's body reading the entry
// back out, watermark advancing, evicted arena space recycling — allocates
// nothing.
func TestJournalAppendZeroAlloc(t *testing.T) {
	j := newJournal(100)
	body, _ := j.resetForAttempt()
	raw := bytes.Repeat([]byte{7}, 140)
	buf := make([]byte, 256)
	var total int64
	step := func() {
		if !j.append(raw, 36) {
			t.Fatal("append refused on a live journal")
		}
		total += 36
		if n, err := body.Read(buf); err != nil || n != len(raw) {
			t.Fatal("body read refused on a live journal")
		}
		j.ack(total)
	}
	for i := 0; i < 200; i++ {
		step() // grow arena and entry ring to steady state
	}
	testutil.AssertZeroAlloc(t, "journal.append", step)
}

// TestJournalRetentionAnchorsToAcks pins the eviction rule: whatever the
// uplink has raced ahead to, resetForAttempt must land at least window
// samples behind the last acked beat, so every undelivered beat stays
// regenerable.
func TestJournalRetentionAnchorsToAcks(t *testing.T) {
	const window = 100
	j := newJournal(window)
	body, base := j.resetForAttempt()
	if base != 0 {
		t.Fatalf("empty journal resolves base %d, want 0", base)
	}
	raw := bytes.Repeat([]byte{1}, 64)
	buf := make([]byte, len(raw))
	var sent, acked int64
	for i := 0; i < 500; i++ {
		if !j.append(raw, 10) {
			t.Fatal("append refused")
		}
		if _, err := body.Read(buf); err != nil {
			t.Fatalf("body read refused: %v", err)
		}
		sent += 10
		// Ack lags the uplink by a widening gap, like a detector waiting
		// on future samples before it can emit.
		if lag := sent / 2; lag > acked {
			acked = lag
			j.ack(acked)
		}
		var rebase int64
		body, rebase = j.resetForAttempt()
		if rebase > acked-window && rebase > 0 {
			t.Fatalf("replay base %d is inside the window (acked %d, window %d)", rebase, acked, window)
		}
		// Drain the replay the reset queued so the cursor keeps leading.
		for {
			j.mu.Lock()
			pending := j.headSeq + int64(j.count) - j.cursor
			j.mu.Unlock()
			if pending == 0 {
				break
			}
			if _, err := body.Read(buf); err != nil {
				t.Fatalf("replay drain refused: %v", err)
			}
		}
	}
}

// TestJournalOverflowPoisons pins graceful degradation: a stream whose acks
// never advance (no beats to anchor eviction) cannot grow the arena past
// its budget — the journal poisons itself, recycles, and reports inexact.
func TestJournalOverflowPoisons(t *testing.T) {
	j := newJournal(1 << 30)
	body, _ := j.resetForAttempt()
	raw := bytes.Repeat([]byte{2}, 8<<10)
	buf := make([]byte, len(raw))
	for total := 0; total <= 2*maxJournalArena; total += len(raw) {
		if !j.append(raw, 256) {
			t.Fatal("append refused")
		}
		if _, err := body.Read(buf); err != nil {
			t.Fatalf("body read refused: %v", err)
		}
	}
	if j.exact() {
		t.Fatal("journal still exact after overflowing its arena budget")
	}
	if len(j.arena) > 2*maxJournalArena {
		t.Fatalf("arena grew to %d bytes, want <= %d", len(j.arena), 2*maxJournalArena)
	}
}

// TestJournalBodyReads pins the attempt body's contract as the transport
// sees it: a Read spans entries and splits them at any byte; it waits for
// the uplink while there is nothing to send; it ends with io.EOF only once
// the uplink has ended and every byte went out; and it fails once a
// failover supersedes the attempt, the relay is torn down, or the body is
// closed — each of which also releases a Read already waiting.
func TestJournalBodyReads(t *testing.T) {
	j := newJournal(1 << 20)
	body, _ := j.resetForAttempt()
	for _, unit := range []string{"abc", "defg", "h"} {
		if !j.append([]byte(unit), 1) {
			t.Fatal("append refused")
		}
	}
	var got []byte
	for _, size := range []int{2, 5, 1} {
		p := make([]byte, size)
		n, err := body.Read(p)
		if err != nil || n != size {
			t.Fatalf("Read(%d bytes) = %d, %v", size, n, err)
		}
		got = append(got, p[:n]...)
	}
	if string(got) != "abcdefgh" {
		t.Fatalf("body read %q, want the journaled bytes abcdefgh", got)
	}

	// blockedRead starts a Read on an empty cursor and returns its result.
	blockedRead := func(b *journalBody) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := b.Read(make([]byte, 8))
			done <- err
		}()
		return done
	}
	waitRead := func(what string, done <-chan error, want error) {
		t.Helper()
		select {
		case err := <-done:
			if err != want {
				t.Fatalf("%s: Read returned %v, want %v", what, err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Read still blocked", what)
		}
	}

	done := blockedRead(body)
	j.append([]byte("ij"), 1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Read woken by an append returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an append did not wake a waiting Read")
	}

	done = blockedRead(body)
	replay, _ := j.resetForAttempt()
	waitRead("superseded", done, errAttemptSuperseded)

	// The new attempt replays every journaled byte; drain them so the next
	// Read waits and Close has a waiting Read to release.
	if n, err := io.ReadFull(replay, make([]byte, len("abcdefghij"))); err != nil {
		t.Fatalf("replay read %d bytes: %v", n, err)
	}
	done = blockedRead(replay)
	replay.Close()
	waitRead("closed", done, errAttemptSuperseded)

	last, _ := j.resetForAttempt()
	j.finish()
	if all, err := io.ReadAll(last); err != nil || string(all) != "abcdefghij" {
		t.Fatalf("replay after the uplink ended read %q, %v; want every journaled byte, then io.EOF", all, err)
	}

	live := newJournal(1 << 20)
	torn, _ := live.resetForAttempt()
	done = blockedRead(torn)
	live.close()
	waitRead("torn down", done, errAttemptSuperseded)
}
