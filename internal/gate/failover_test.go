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
	"runtime"
	"testing"

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
// back out, watermark advancing, evicted slot buffers recycling — allocates
// nothing.
func TestJournalAppendZeroAlloc(t *testing.T) {
	j := newJournal(100, nil)
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
		step() // grow the entry ring and its slot buffers to steady state
	}
	testutil.AssertZeroAlloc(t, "journal.append", step)
}

// TestJournalRetentionAnchorsToAcks pins the eviction rule: whatever the
// uplink has raced ahead to, resetForAttempt must land at least window
// samples behind the last acked beat, so every undelivered beat stays
// regenerable.
func TestJournalRetentionAnchorsToAcks(t *testing.T) {
	const window = 100
	j := newJournal(window, nil)
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

// TestJournalEvictsOnEveryAppend bounds retention from above: every append
// evicts all that the rule allows, so a failover replays the window plus
// the delivery lag, never a backlog. After steady appends with acks,
// resetForAttempt's base lies within one unit of acked − window.
func TestJournalEvictsOnEveryAppend(t *testing.T) {
	const window, unit, lag = 100, 10, 50
	j := newJournal(window, nil)
	body, _ := j.resetForAttempt()
	raw := bytes.Repeat([]byte{3}, 64)
	buf := make([]byte, len(raw))
	var total, acked int64
	for i := 0; i < 500; i++ {
		if total >= lag {
			acked = total - lag
			j.ack(acked)
		}
		if !j.append(raw, unit) {
			t.Fatal("append refused")
		}
		total += unit
		if _, err := body.Read(buf); err != nil {
			t.Fatalf("body read refused: %v", err)
		}
	}
	_, base := j.resetForAttempt()
	if want := acked - window; base > want || base <= want-unit {
		t.Fatalf("replay base %d, want within one %d-sample unit below acked %d - window %d = %d",
			base, unit, acked, window, want)
	}
}

// TestJournalOverflowPoisons pins graceful degradation: a stream whose acks
// never advance (no beats to anchor eviction) cannot retain more than its
// budget — the journal poisons itself, recycles, and reports inexact.
func TestJournalOverflowPoisons(t *testing.T) {
	j := newJournal(1<<30, nil)
	body, _ := j.resetForAttempt()
	raw := bytes.Repeat([]byte{2}, 8<<10)
	buf := make([]byte, len(raw))
	for total := 0; total <= 2*maxJournalBytes; total += len(raw) {
		if !j.append(raw, 256) {
			t.Fatal("append refused")
		}
		if _, err := body.Read(buf); err != nil {
			t.Fatalf("body read refused: %v", err)
		}
		if j.bytes > maxJournalBytes {
			t.Fatalf("journal retains %d bytes, want <= %d", j.bytes, maxJournalBytes)
		}
	}
	if j.exact() {
		t.Fatal("journal still exact after overflowing its budget")
	}
}

// TestJournalReleasesHugeSlots: a slot recycles its buffer only up to
// maxSlotKeep, so a stream of huge units holds the units retention needs,
// not a ring's worth of them.
func TestJournalReleasesHugeSlots(t *testing.T) {
	j := newJournal(100, nil)
	body, _ := j.resetForAttempt()
	raw := make([]byte, 2*maxSlotKeep)
	buf := make([]byte, len(raw))
	var total int64
	for i := 0; i < 200; i++ {
		if !j.append(raw, 50) {
			t.Fatal("append refused")
		}
		total += 50
		if _, err := io.ReadFull(body, buf); err != nil {
			t.Fatalf("body read refused: %v", err)
		}
		j.ack(total)
	}
	for i := j.count; i < len(j.ents); i++ {
		if c := cap(j.ents[(j.head+i)%len(j.ents)].buf); c > maxSlotKeep {
			t.Fatalf("free slot %d keeps a %d-byte buffer, want <= %d", i, c, maxSlotKeep)
		}
	}
}

// TestJournalHeapBounded holds the journal's heap, read from
// runtime.MemStats after two GCs, to its budget however the uplink is cut
// into units. One-sample lines (16 B each) with no acks run until the
// journal poisons, and the heap stays under 1.5x maxJournalBytes all the
// way: the budget counts the entry ring's slots and each slot buffer's
// capacity, not only the units' bytes. And once 200,000 unacked lines have
// grown the ring, 60,000 acked 4 KiB units leave under 1 MiB: the ring
// shrinks once mostly free, so the slots the stream cycles through do not
// each keep a buffer.
func TestJournalHeapBounded(t *testing.T) {
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	line := []byte(`{"samples":[0]}`)
	unit := bytes.Repeat([]byte{4}, 4<<10)
	buf := make([]byte, len(unit))
	push := func(j *journal, body *journalBody, raw []byte, samples int) {
		if !j.append(raw, samples) {
			t.Fatal("append refused")
		}
		if n, err := body.Read(buf); err != nil || n != len(raw) {
			t.Fatalf("body read %d bytes (%v), want %d", n, err, len(raw))
		}
	}
	base := heap()

	j := newJournal(360, nil)
	body, _ := j.resetForAttempt()
	lines, peak := 0, int64(0)
	for j.exact() {
		push(j, body, line, 1)
		if lines++; lines%(1<<16) == 0 || !j.exact() {
			peak = max(peak, heap()-base)
			if peak > 3*maxJournalBytes/2 {
				t.Fatalf("%d unacked one-sample lines hold %d B of heap, want <= 1.5 x %d", lines, peak, maxJournalBytes)
			}
		}
	}
	t.Logf("poisoned after %d one-sample lines, at most %d B of heap", lines, peak)

	j = newJournal(360, nil)
	body, _ = j.resetForAttempt()
	for i := 0; i < 200_000; i++ {
		push(j, body, line, 1)
	}
	for i := 0; i < 60_000; i++ {
		push(j, body, unit, 360)
		j.ack(j.samples())
	}
	h := heap() - base
	t.Logf("after the acked units: %d live entries, a %d-slot ring, %d B of heap", j.count, len(j.ents), h)
	if h > 1<<20 {
		t.Fatalf("%d live entries in a %d-slot ring hold %d B of heap after the acked units, want <= 1 MiB", j.count, len(j.ents), h)
	}
	if !j.exact() {
		t.Fatal("journal poisoned by acked units")
	}
	runtime.KeepAlive(j)
}

// gatedClient is a client uplink the test feeds one read at a time:
// entered signals that a Read is waiting for bytes, and closing data ends
// the uplink.
type gatedClient struct {
	entered chan struct{}
	data    chan []byte
}

func newGatedClient() *gatedClient {
	return &gatedClient{entered: make(chan struct{}), data: make(chan []byte)}
}

func (c *gatedClient) Read(p []byte) (int, error) {
	c.entered <- struct{}{}
	b, ok := <-c.data
	if !ok {
		return 0, io.EOF
	}
	return copy(p, b), nil
}

// TestJournalBodyReads pins the attempt body's contract as the transport
// sees it: a Read spans entries and splits them at any byte; with every
// entry sent it returns the client's next unit; it ends with io.EOF only
// once the uplink has ended and every byte went out; and it fails once a
// failover supersedes the attempt, the body is closed or the relay is torn
// down.
func TestJournalBodyReads(t *testing.T) {
	client := newGatedClient()
	j := newJournal(1<<20, wire.NewUplinkReader(client, false))
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

	// Every entry is sent: the next Read pulls the client's next unit and
	// sends it, split like any entry.
	line := `{"samples":[4,5,6]}` + "\n"
	read := make(chan []byte, 1)
	go func() {
		p, err := io.ReadAll(io.LimitReader(body, int64(len(line))))
		if err != nil {
			t.Errorf("Read of the pulled unit: %v", err)
		}
		read <- p
	}()
	<-client.entered
	client.data <- []byte(line)
	if p := <-read; string(p) != line {
		t.Fatalf("body read %q from the client, want %q", p, line)
	}
	if n := j.samples(); n != 3+3 {
		t.Fatalf("journal counts %d samples, want 6", n)
	}

	// The uplink ends: a replay sends every journaled byte, then io.EOF.
	go func() {
		<-client.entered
		close(client.data)
	}()
	replay, _ := j.resetForAttempt()
	if all, err := io.ReadAll(replay); err != nil || string(all) != "abcdefgh"+line {
		t.Fatalf("replay after the uplink ended read %q, %v; want every journaled byte, then io.EOF", all, err)
	}

	if _, err := body.Read(make([]byte, 8)); err != errAttemptSuperseded {
		t.Fatalf("superseded body: Read returned %v, want %v", err, errAttemptSuperseded)
	}
	last, _ := j.resetForAttempt()
	last.Close()
	if _, err := last.Read(make([]byte, 8)); err != errAttemptSuperseded {
		t.Fatalf("closed body: Read returned %v, want %v", err, errAttemptSuperseded)
	}
	torn, _ := j.resetForAttempt()
	j.close()
	if _, err := torn.Read(make([]byte, 8)); err != errAttemptSuperseded {
		t.Fatalf("torn-down body: Read returned %v, want %v", err, errAttemptSuperseded)
	}
}

// TestJournalSupersededPull covers the one interleaving the pull adds: a
// Read blocked on the client when a failover supersedes its attempt
// journals the unit it receives and fails, and the successor sends that
// unit exactly once.
func TestJournalSupersededPull(t *testing.T) {
	client := newGatedClient()
	j := newJournal(1<<20, wire.NewUplinkReader(client, false))
	stale, _ := j.resetForAttempt()
	staleErr := make(chan error, 1)
	go func() {
		_, err := stale.Read(make([]byte, 64))
		staleErr <- err
	}()
	<-client.entered // the stale Read holds the pull lock, reading the client

	next, base := j.resetForAttempt()
	if base != 0 {
		t.Fatalf("successor resumes from %d, want 0", base)
	}
	sent := make(chan []byte, 1)
	go func() {
		p := make([]byte, 64)
		n, err := next.Read(p)
		if err != nil {
			t.Errorf("successor Read: %v", err)
		}
		sent <- p[:n]
	}()
	line := `{"samples":[1,2]}` + "\n"
	client.data <- []byte(line)
	if err := <-staleErr; err != errAttemptSuperseded {
		t.Fatalf("superseded Read returned %v, want %v", err, errAttemptSuperseded)
	}
	select {
	case p := <-sent:
		if string(p) != line {
			t.Fatalf("successor sent %q, want the stale Read's unit %q", p, line)
		}
	case <-client.entered:
		t.Fatal("successor read the client before sending the journaled unit")
	}
	go func() {
		<-client.entered
		close(client.data)
	}()
	if rest, err := io.ReadAll(next); err != nil || len(rest) != 0 {
		t.Fatalf("successor went on to send %q, %v; want the unit once, then io.EOF", rest, err)
	}
	if n := j.samples(); n != 2 {
		t.Fatalf("journal counts %d samples, want 2", n)
	}
}
