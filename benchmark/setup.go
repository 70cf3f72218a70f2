package main

import (
	"embed"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"rpbeat/internal/catalog"
	"rpbeat/internal/core"
	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/load"
	"rpbeat/internal/pipeline"
)

// The served models, trained by cmd/rptrain (flags in WORKLOADS.md) so
// verdicts are mixed and the class check means something.
//
//go:embed models/fuzzy.json models/bitemb.json
var modelFS embed.FS

// heads are the two model names every workload serves, one per classifier
// head.
var heads = [2]string{"fuzzy", "bitemb"}

const (
	numRecords    = 16  // distinct ecgsyn records per workload seed
	recordSeconds = 60  // length of one record
	chunkSamples  = 180 // one uplink chunk: 0.5 s at 360 Hz
	fs            = ecgsyn.Fs
)

// newCatalog decodes and quantizes both served models into a fresh
// catalog, fuzzy as the default — what rpserve -model does at boot.
func newCatalog() (*catalog.Catalog, error) {
	cat := catalog.New()
	for _, name := range heads {
		data, err := modelFS.ReadFile("models/" + name + ".json")
		if err != nil {
			return nil, err
		}
		m, err := core.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", name, err)
		}
		if _, err := cat.Put(name, m, nil); err != nil {
			return nil, fmt.Errorf("register %s: %w", name, err)
		}
	}
	if err := cat.SetDefault(heads[0]); err != nil {
		return nil, err
	}
	return cat, nil
}

// embedded returns the quantized classifier of a head.
func embedded(cat *catalog.Catalog, head string) (*core.Embedded, error) {
	e, err := cat.Snapshot().Resolve(head)
	if err != nil {
		return nil, err
	}
	return e.Emb, nil
}

// synthRecords renders the workload's distinct records from its seed: lead
// 0 of 60 s ecgsyn records with premature ventricular beats, every fourth
// one a left-bundle-branch-block subject, so N, L and V all occur.
func synthRecords(seed uint64) [][]int32 {
	leads := make([][]int32, numRecords)
	var wg sync.WaitGroup
	for i := range leads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := ecgsyn.Synthesize(ecgsyn.RecordSpec{
				Name:    fmt.Sprintf("bench-%d", i),
				Seconds: recordSeconds,
				Seed:    load.PatientSeed(seed, i),
				PVCRate: 0.15,
				LBBB:    i%4 == 3,
			})
			leads[i] = rec.Leads[0]
		}(i)
	}
	wg.Wait()
	return leads
}

// looped returns the first n samples of the record repeated end to end:
// what a stream that cycles through its record has been sent.
func looped(lead []int32, n int) []int32 {
	out := make([]int32, 0, n)
	for len(out) < n {
		out = append(out, lead[:min(len(lead), n-len(out))]...)
	}
	return out
}

// server is one in-process HTTP server on a loopback port.
type server struct {
	URL  string
	srv  *http.Server
	done chan struct{}
}

// listen serves h on 127.0.0.1 at an ephemeral port.
func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		URL:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("server %s: %v\n", s.URL, err)
		}
	}()
	return s, nil
}

// close stops the server, its connections included, and waits for it.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// node is one rpserve-equivalent backend: catalog, engine and handler, as
// cmd/rpserve wires them with no flags beyond the models.
type node struct {
	cat *catalog.Catalog
	eng *pipeline.Engine
	srv *server
}

// startNode builds a backend; wrap (may be nil) decorates its handler.
func startNode(wrap func(http.Handler) http.Handler) (*node, error) {
	cat, err := newCatalog()
	if err != nil {
		return nil, err
	}
	eng := pipeline.NewEngine(cat, pipeline.EngineConfig{})
	h := serveHandler(eng)
	if wrap != nil {
		h = wrap(h)
	}
	srv, err := listen(h)
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &node{cat: cat, eng: eng, srv: srv}, nil
}

func (n *node) close() {
	n.srv.close()
	n.eng.Close()
}

// keepAliveClient is one client connection as Go's default transport keeps
// it: a clone of http.DefaultTransport, used by one goroutine issuing
// requests back to back, so it holds exactly one keep-alive connection.
func keepAliveClient() *http.Client {
	return &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
}
