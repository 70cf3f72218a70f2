package faultinject

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestPlanDeterminism(t *testing.T) {
	p := Plan{Seed: 42}
	a := p.Pick("stream-7")
	b := p.Pick("stream-7")
	if a != b {
		t.Fatalf("same (seed, unit) gave different faults: %+v vs %+v", a, b)
	}
	if c := p.Pick("stream-8"); c == a {
		t.Fatalf("distinct units collided on fault %+v", a)
	}
	if d := (Plan{Seed: 43}).Pick("stream-7"); d == a {
		t.Fatalf("distinct seeds collided on fault %+v", a)
	}
	if a.Delay <= 0 || a.AtByte < 0 {
		t.Fatalf("degenerate fault %+v", a)
	}
}

func TestPlanPickRestrictsKinds(t *testing.T) {
	p := Plan{Seed: 9}
	for i := 0; i < 64; i++ {
		f := p.Pick("unit-"+strings.Repeat("x", i), LatencySpike, SlowLoris)
		if f.Kind != LatencySpike && f.Kind != SlowLoris {
			t.Fatalf("restricted pick returned %v", f.Kind)
		}
	}
}

func TestReaderKillAfterBytes(t *testing.T) {
	src := bytes.Repeat([]byte("abcdefgh"), 100)
	r := NewReader(bytes.NewReader(src), Fault{Kind: KillAfterBytes, AtByte: 300})
	got, err := io.ReadAll(r)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !bytes.Equal(got, src[:300]) {
		t.Fatalf("delivered %d bytes before the kill, want exactly 300 intact", len(got))
	}
}

func TestReaderConnReset(t *testing.T) {
	r := NewReader(strings.NewReader("payload"), Fault{Kind: ConnReset})
	n, err := r.Read(make([]byte, 4))
	if n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("Read = (%d, %v), want (0, ErrInjected)", n, err)
	}
}

func TestReaderLatencySpikeDeliversEverything(t *testing.T) {
	src := bytes.Repeat([]byte("z"), 512)
	r := NewReader(bytes.NewReader(src),
		Fault{Kind: LatencySpike, AtByte: 100, Delay: 20 * time.Millisecond})
	start := time.Now()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("latency spike corrupted the stream: %d/%d bytes", len(got), len(src))
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("stream finished in %v, spike never fired", d)
	}
}

func TestWriterSlowLoris(t *testing.T) {
	var sink bytes.Buffer
	w := NewWriter(&sink, Fault{Kind: SlowLoris, AtByte: 0, Delay: time.Millisecond})
	payload := bytes.Repeat([]byte("beat"), 64)
	start := time.Now()
	n, err := w.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("Write = (%d, %v)", n, err)
	}
	if !bytes.Equal(sink.Bytes(), payload) {
		t.Fatal("slow-loris corrupted the stream")
	}
	// 256 bytes at 16 per op with 1ms pacing is at least 16ms.
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("write finished in %v, throttle never engaged", d)
	}
}

func TestWriterTornFrameShortWrite(t *testing.T) {
	var sink bytes.Buffer
	w := NewWriter(&sink, Fault{Kind: TornFrame, AtByte: 5})
	n, err := w.Write([]byte("0123456789"))
	if n != 5 || !errors.Is(err, ErrInjected) {
		t.Fatalf("Write = (%d, %v), want (5, ErrInjected)", n, err)
	}
	if sink.String() != "01234" {
		t.Fatalf("torn at %q, want %q", sink.String(), "01234")
	}
}

func TestTransportDownlinkKill(t *testing.T) {
	body := bytes.Repeat([]byte("line\n"), 1000)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	}))
	defer ts.Close()

	tr := &Transport{Downlink: []Fault{{Kind: KillAfterBytes, AtByte: 128}}, Times: 1}
	client := &http.Client{Transport: tr}

	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("first attempt: err = %v, want ErrInjected", err)
	}
	if !bytes.Equal(got, body[:128]) {
		t.Fatalf("first attempt delivered %d bytes, want 128", len(got))
	}

	// Times: 1 — the retry (the failover attempt) is clean.
	resp, err = client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	got, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("second attempt: %d bytes, err %v — want the full clean body", len(got), err)
	}
}

func TestTransportUplinkFaultReachesServer(t *testing.T) {
	var seen int
	done := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		seen = len(b)
		close(done)
	}))
	defer ts.Close()

	client := &http.Client{Transport: &Transport{
		Uplink: []Fault{{Kind: KillAfterBytes, AtByte: 64}},
	}}
	_, err := client.Post(ts.URL, "application/octet-stream",
		bytes.NewReader(make([]byte, 4096)))
	if err == nil {
		t.Fatal("killed uplink still round-tripped cleanly")
	}
	<-done
	if seen > 64 {
		t.Fatalf("server saw %d bytes past the kill point", seen)
	}
}
