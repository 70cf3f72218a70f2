package gate

// Byte-identity suite: a response relayed through rpgate must be
// indistinguishable from talking to the backend directly — same status, same
// body bytes, same Content-Type, same Retry-After — on the happy paths and
// on every typed error body. The gateway adds routing headers
// (X-Rpgate-Backend) but never rewrites a payload.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"testing"

	"rpbeat/internal/serve"
	"rpbeat/internal/wire"
)

// rawResponse is everything identity cares about.
type rawResponse struct {
	status     int
	body       []byte
	cType      string
	retryAfter string
}

func doRaw(t *testing.T, client *http.Client, base, method, path, cType string, body []byte) rawResponse {
	t.Helper()
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if cType != "" {
		req.Header.Set("Content-Type", cType)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return rawResponse{
		status:     resp.StatusCode,
		body:       data,
		cType:      resp.Header.Get("Content-Type"),
		retryAfter: resp.Header.Get("Retry-After"),
	}
}

// ndjsonChunks renders samples as the NDJSON chunk uplink format.
func ndjsonChunks(samples []int32, chunk int) []byte {
	var buf bytes.Buffer
	for off := 0; off < len(samples); off += chunk {
		end := off + chunk
		if end > len(samples) {
			end = len(samples)
		}
		buf.WriteString(`{"samples":[`)
		for i, s := range samples[off:end] {
			if i > 0 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, "%d", s)
		}
		buf.WriteString("]}\n")
	}
	return buf.Bytes()
}

// TestProxyByteIdentity replays the same request direct and through a
// single-backend gateway and requires identical observable responses, happy
// paths and typed errors alike.
func TestProxyByteIdentity(t *testing.T) {
	s := newGateStack(t, 1, serve.HandlerConfig{}, Config{})
	defer s.Close()
	s.gw.CheckNow(context.Background())
	b := s.backends[0]

	lead := testLead(8, 41)
	frames := mustFrame(t, lead)
	classifyJSON := []byte(fmt.Sprintf(`{"model":"m","samples":%s}`,
		bytes.TrimSuffix(bytes.TrimPrefix(ndjsonChunks(lead, len(lead)), []byte(`{"samples":`)), []byte("}\n"))))

	// A frame whose header claims more samples than MaxFrameSamples allows:
	// typed refusal before any allocation.
	oversized := make([]byte, 16)
	copy(oversized, frames[:4])
	oversized[4], oversized[5], oversized[6], oversized[7] = 0xff, 0xff, 0xff, 0x7f

	// NDJSON uplinks the gateway pump must frame exactly as the backend
	// does: a bad chunk line after good ones (the pump poisons its journal
	// and passes the rest through raw), CRLF line ends among blank lines,
	// and a final line without its newline.
	half := len(lead) / 2
	badLine := append(append(ndjsonChunks(lead[:half], 720), "{nope}\n"...), ndjsonChunks(lead[half:], 720)...)
	crlf := append([]byte("\n\r\n"), bytes.ReplaceAll(ndjsonChunks(lead, 720), []byte("\n"), []byte("\r\n\n"))...)
	unterminated := bytes.TrimSuffix(ndjsonChunks(lead, 720), []byte("\n"))

	cases := []struct {
		name, method, path, cType string
		body                      []byte
		wantStatus                int
	}{
		{"classify json", http.MethodPost, "/v1/classify", wire.ContentTypeJSON, classifyJSON, 200},
		{"classify binary", http.MethodPost, "/v1/classify", wire.ContentTypeSamples, frames, 200},
		{"stream ndjson", http.MethodPost, "/v1/stream", wire.ContentTypeNDJSON, ndjsonChunks(lead, 720), 200},
		{"stream binary", http.MethodPost, "/v1/stream", wire.ContentTypeSamples, frames, 200},
		{"stream bad ndjson line", http.MethodPost, "/v1/stream", wire.ContentTypeNDJSON, badLine, 200},
		{"stream crlf and blank lines", http.MethodPost, "/v1/stream", wire.ContentTypeNDJSON, crlf, 200},
		{"stream final line without newline", http.MethodPost, "/v1/stream", wire.ContentTypeNDJSON, unterminated, 200},
		{"models inventory", http.MethodGet, "/v1/models", "", nil, 200},
		{"manifest detail", http.MethodGet, "/v1/models/m@v1", "", nil, 200},
		{"unknown model", http.MethodGet, "/v1/models/nope", "", nil, 404},
		{"classify bad json", http.MethodPost, "/v1/classify", wire.ContentTypeJSON, []byte("{not json"), 400},
		{"classify empty", http.MethodPost, "/v1/classify", wire.ContentTypeJSON, []byte(`{"samples":[]}`), 400},
		{"stream torn frame", http.MethodPost, "/v1/stream", wire.ContentTypeSamples, frames[:len(frames)-3], 0},
		{"classify oversized frame", http.MethodPost, "/v1/classify", wire.ContentTypeSamples, oversized, 0},
		{"wrong method", http.MethodGet, "/v1/classify", "", nil, 405},
		{"unknown route", http.MethodGet, "/v1/bogus", "", nil, 404},
		{"unknown stream model", http.MethodPost, "/v1/stream?model=nope", wire.ContentTypeNDJSON, []byte(""), 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			direct := doRaw(t, b.ts.Client(), b.ts.URL, tc.method, tc.path, tc.cType, tc.body)
			relayed := doRaw(t, s.ts.Client(), s.ts.URL, tc.method, tc.path, tc.cType, tc.body)
			if tc.wantStatus != 0 && direct.status != tc.wantStatus {
				t.Fatalf("direct status %d, want %d (body %s)", direct.status, tc.wantStatus, direct.body)
			}
			if relayed.status != direct.status {
				t.Fatalf("status: relayed %d, direct %d", relayed.status, direct.status)
			}
			if !bytes.Equal(relayed.body, direct.body) {
				t.Fatalf("body diverges\nrelayed: %q\ndirect:  %q", relayed.body, direct.body)
			}
			if relayed.cType != direct.cType {
				t.Fatalf("Content-Type: relayed %q, direct %q", relayed.cType, direct.cType)
			}
			if relayed.retryAfter != direct.retryAfter {
				t.Fatalf("Retry-After: relayed %q, direct %q", relayed.retryAfter, direct.retryAfter)
			}
		})
	}
}

// TestProxyByteIdentityOverload: a backend at its stream cap sheds through
// the gateway with the exact bytes it sheds with directly — typed
// server_overloaded body plus Retry-After.
func TestProxyByteIdentityOverload(t *testing.T) {
	s := newGateStack(t, 1, serve.HandlerConfig{MaxStreams: 1}, Config{})
	defer s.Close()
	s.gw.CheckNow(context.Background())
	b := s.backends[0]

	// Occupy the single stream slot with a held-open stream.
	hold := openStream(t, s.ts.Client(), s.ts.URL, "holder", mustFrame(t, testLead(4, 42)))
	defer func() {
		hold.pw.Close()
		io.Copy(io.Discard, hold.br)
		hold.resp.Body.Close()
	}()

	frame := mustFrame(t, testLead(2, 43))
	direct := doRaw(t, b.ts.Client(), b.ts.URL, http.MethodPost, "/v1/stream", wire.ContentTypeSamples, frame)
	relayed := doRaw(t, s.ts.Client(), s.ts.URL, http.MethodPost, "/v1/stream", wire.ContentTypeSamples, frame)

	if direct.status != http.StatusServiceUnavailable {
		t.Fatalf("direct shed status %d, want 503 (body %s)", direct.status, direct.body)
	}
	if direct.retryAfter == "" {
		t.Fatal("direct shed missing Retry-After")
	}
	if relayed.status != direct.status || !bytes.Equal(relayed.body, direct.body) ||
		relayed.retryAfter != direct.retryAfter || relayed.cType != direct.cType {
		t.Fatalf("shed response diverges\nrelayed: %d %q RA=%q CT=%q\ndirect:  %d %q RA=%q CT=%q",
			relayed.status, relayed.body, relayed.retryAfter, relayed.cType,
			direct.status, direct.body, direct.retryAfter, direct.cType)
	}
}
