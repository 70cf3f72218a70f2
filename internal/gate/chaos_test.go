package gate

// Chaos suite for the gateway tier: backends die mid-stream under live
// traffic, and the contract must hold. A backend death is invisible —
// victim streams continue on a successor with no error line, no lost or
// duplicated beat, and a done line accounting for the whole record.
// Unaffected streams are beat-for-beat identical to a direct-to-backend run
// and a full-stack Close leaks no goroutines. Run under -race.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"

	"rpbeat/internal/apierr"
	"rpbeat/internal/serve"
	"rpbeat/internal/wire"
)

// keysOwnedBy finds n distinct stream ids the gateway currently routes to
// the given backend URL.
func keysOwnedBy(t *testing.T, s *gateStack, url string, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n; i++ {
		if i > 100000 {
			t.Fatalf("could not find %d keys for %s", n, url)
		}
		k := fmt.Sprintf("chaos-%d", i)
		if owner, ok := s.gw.BackendFor(k); ok && owner == url {
			out = append(out, k)
		}
	}
	return out
}

// liveStream is one interactive /v1/stream request held open mid-stream: the
// request body is a pipe, so the server sits between chunks until fed or
// abandoned.
type liveStream struct {
	pw    *io.PipeWriter
	resp  *http.Response
	br    *bufio.Reader
	first []byte // the first response line, consumed by openStream
}

// openStream starts a stream for id, writes one binary frame and blocks
// until the first beat line arrives — proof the relay is live end to end.
func openStream(t *testing.T, client *http.Client, base, id string, frame []byte) *liveStream {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeSamples)
	req.Header.Set("X-Stream-Id", id)
	go pw.Write(frame)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("stream %s: %v", id, err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream %s: status %d: %s", id, resp.StatusCode, body)
	}
	ls := &liveStream{pw: pw, resp: resp, br: bufio.NewReader(resp.Body)}
	line, err := ls.br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("stream %s: first line: %v", id, err)
	}
	if !json.Valid(line) {
		t.Fatalf("stream %s: first line not JSON: %q", id, line)
	}
	ls.first = line
	return ls
}

// streamLine is the decoded shape of one NDJSON downlink line — beat fields
// for beat lines, done fields for the terminal line.
type streamLine struct {
	Sample     int64  `json:"sample"`
	Class      string `json:"class"`
	DetectedAt int64  `json:"detectedAt"`
	Done       bool   `json:"done"`
	Beats      int    `json:"beats"`
	Samples    int    `json:"samples"`
}

// drainLines reads the stream to EOF and returns every remaining line.
// Errors from the read are fine (the connection may die under chaos); a
// partial trailing line without '\n' is returned too so callers can assert
// it never happens.
func drainLines(ls *liveStream) [][]byte {
	var lines [][]byte
	for {
		line, err := ls.br.ReadBytes('\n')
		if len(line) > 0 {
			lines = append(lines, line)
		}
		if err != nil {
			return lines
		}
	}
}

// errLine decodes an NDJSON error line, or nil if the line is not one.
func errLine(line []byte) *apierr.Error {
	var er struct {
		Error *apierr.Error `json:"error"`
	}
	if json.Unmarshal(line, &er) != nil {
		return nil
	}
	return er.Error
}

// streamDirect runs a whole binary-framed record against one backend and
// returns the full NDJSON response body — the reference a relayed run must
// match byte for byte.
func streamDirect(t *testing.T, b *backendStack, body []byte) []byte {
	t.Helper()
	resp, err := b.ts.Client().Post(b.ts.URL+"/v1/stream", wire.ContentTypeSamples, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct stream status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestChaosBackendKillMidStream kills a backend while streams are mid-flight
// through the gateway. The kill must be invisible to the client: victim
// streams continue on a successor backend with no error line, strictly
// increasing beat samples (no loss, no duplication), and a final done line
// accounting for the whole record. Survivor streams on other backends are
// byte-identical to direct runs.
func TestChaosBackendKillMidStream(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := newGateStack(t, 3, serve.HandlerConfig{}, Config{FailAfter: 1})
	s.gw.CheckNow(context.Background())

	lead1, lead2 := testLead(10, 21), testLead(10, 22)
	frame1, frame2 := mustFrame(t, lead1), mustFrame(t, lead2)
	victim := s.backends[2]

	// Three victim streams held mid-stream on the doomed backend.
	victimIDs := keysOwnedBy(t, s, victim.ts.URL, 3)
	var victims []*liveStream
	for _, id := range victimIDs {
		victims = append(victims, openStream(t, s.ts.Client(), s.ts.URL, id, frame1))
	}

	// Survivor streams mid-flight on the other two backends while the kill
	// happens.
	survivorIDs := append(keysOwnedBy(t, s, s.backends[0].ts.URL, 2),
		keysOwnedBy(t, s, s.backends[1].ts.URL, 2)...)
	var survivors []*liveStream
	for _, id := range survivorIDs {
		survivors = append(survivors, openStream(t, s.ts.Client(), s.ts.URL, id, frame1))
	}

	// Kill the backend under all three victim streams.
	victim.ts.CloseClientConnections()
	victim.Close()

	// The kill must be invisible: the client finishes its record as if
	// nothing happened.
	for i, ls := range victims {
		if _, err := ls.pw.Write(frame2); err != nil {
			t.Fatalf("victim %d: uplink write after kill: %v", i, err)
		}
		ls.pw.Close()
	}

	for i, ls := range victims {
		lines := append([][]byte{ls.first}, drainLines(ls)...)
		prev, beats := int64(-1), 0
		var done *streamLine
		for _, line := range lines {
			if !bytes.HasSuffix(line, []byte("\n")) {
				t.Fatalf("victim %d: torn line %q", i, line)
			}
			if e := errLine(line); e != nil {
				t.Fatalf("victim %d: error line leaked through failover: %q", i, line)
			}
			var sl streamLine
			if err := json.Unmarshal(line, &sl); err != nil {
				t.Fatalf("victim %d: non-JSON line %q: %v", i, line, err)
			}
			if sl.Done {
				done = &sl
				continue
			}
			if done != nil {
				t.Fatalf("victim %d: line after done: %q", i, line)
			}
			beats++
			if sl.Sample <= prev {
				t.Fatalf("victim %d: beat sample %d after %d — beat lost or duplicated across failover",
					i, sl.Sample, prev)
			}
			prev = sl.Sample
		}
		if done == nil {
			t.Fatalf("victim %d: stream ended without a done line", i)
		}
		if beats == 0 {
			t.Fatalf("victim %d: stream delivered no beats at all", i)
		}
		if done.Beats != beats {
			t.Fatalf("victim %d: done reports %d beats, stream delivered %d", i, done.Beats, beats)
		}
		if want := len(lead1) + len(lead2); done.Samples != want {
			t.Fatalf("victim %d: done reports %d samples, record has %d", i, done.Samples, want)
		}
		ls.resp.Body.Close()
	}

	if got := s.gw.Status().Failovers; got < int64(len(victims)) {
		t.Fatalf("failovers counter is %d, want >= %d (one per victim stream)", got, len(victims))
	}

	// The dead backend's keys rehash to survivors (FailAfter=1 demoted it on
	// the first lost relay).
	for _, id := range victimIDs[:1] {
		if owner, ok := s.gw.BackendFor(id); !ok || owner == victim.ts.URL {
			t.Fatalf("key %s still routed to dead backend (owner %q ok=%v)", id, owner, ok)
		}
	}

	// Survivors finish their streams undisturbed and match a direct run
	// byte for byte.
	var wantBody []byte
	wantBody = append(wantBody, frame1...)
	refDirect := streamDirect(t, s.backends[0], wantBody)
	for i, ls := range survivors {
		ls.pw.Close() // end of record
		rest, err := io.ReadAll(ls.br)
		if err != nil {
			t.Fatalf("survivor %d: read: %v", i, err)
		}
		ls.resp.Body.Close()
		// Reassemble the full response: the first line openStream consumed is
		// deterministic, so compare against the direct reference suffix.
		if !bytes.HasSuffix(refDirect, rest) {
			t.Fatalf("survivor %d: relayed tail diverges from direct run\nrelayed: %q\ndirect:  %q",
				i, rest, refDirect)
		}
		if len(rest) >= len(refDirect) {
			t.Fatalf("survivor %d: tail (%d bytes) should be shorter than full direct body (%d)",
				i, len(rest), len(refDirect))
		}
	}

	// Full-stack teardown leaks nothing.
	s.Close()
	s.ts.Client().CloseIdleConnections()
	for _, b := range s.backends {
		b.ts.Client().CloseIdleConnections()
	}
	waitGoroutines(t, baseline+2)
}

// TestChaosBackendKillNoSuccessor: when the backend under live streams dies
// and no backend is left to resume on, each stream ends cleanly with a
// trailing typed retryable error line — every received line whole JSON,
// nothing hangs, no failover counted.
func TestChaosBackendKillNoSuccessor(t *testing.T) {
	s := newGateStack(t, 1, serve.HandlerConfig{}, Config{FailAfter: 1})
	defer s.Close()
	s.gw.CheckNow(context.Background())

	frame := mustFrame(t, testLead(10, 21))
	victim := s.backends[0]
	var victims []*liveStream
	for _, id := range []string{"lone-1", "lone-2"} {
		victims = append(victims, openStream(t, s.ts.Client(), s.ts.URL, id, frame))
	}

	victim.ts.CloseClientConnections()
	victim.Close()

	for i, ls := range victims {
		lines := drainLines(ls)
		if len(lines) == 0 {
			t.Fatalf("victim %d: stream ended with no trailing line at all", i)
		}
		for _, line := range lines {
			if !bytes.HasSuffix(line, []byte("\n")) {
				t.Fatalf("victim %d: torn line %q", i, line)
			}
			if !json.Valid(line) {
				t.Fatalf("victim %d: non-JSON line %q", i, line)
			}
		}
		last := errLine(lines[len(lines)-1])
		if last == nil {
			t.Fatalf("victim %d: final line is not a typed error: %q", i, lines[len(lines)-1])
		}
		if last.Code != apierr.CodeServerOverloaded && last.Code != apierr.CodeShuttingDown {
			t.Fatalf("victim %d: error code %q, want server_overloaded or shutting_down", i, last.Code)
		}
		ls.resp.Body.Close()
		ls.pw.Close()
	}
	if got := s.gw.Status().Failovers; got != 0 {
		t.Fatalf("%d failovers counted with no backend to fail over to", got)
	}
}
