package gate

// Transparent mid-stream failover for /v1/stream.
//
// The stream relay tees the client's uplink through a bounded replay journal
// (journal.go) and parses the backend's NDJSON downlink line by line. Each
// backend attempt's request body reads straight from the journal, and once
// it has sent everything journaled it reads the client's next unit through
// wire.UplinkReader, the reader the backend itself runs; so a relayed
// stream runs no goroutine of its own beside its handler, and the client is
// read only when a backend asks for bytes. When the backend dies mid-stream
// — a transport error, an unexpected EOF, or a typed retryable error line
// like shutting_down — the relay reopens the stream on the routable backend
// its key weighs heaviest for once the lost one is skipped, replays the
// retained journal with the resume handshake (wire.ResumeFromHeader),
// suppresses the replayed beats the client already has (every beat with
// sample index at or below the delivery watermark — exact, because
// refractory arbitration makes beat positions strictly monotone), and
// resumes live relaying. The journal retains at least the
// deterministic-resync bound of samples (pipeline.ResyncWarmup), so every
// beat past the watermark is bit-identical to what the uninterrupted backend
// would have sent.
//
// Failure-cause taxonomy (what does and does not fail over):
//
//   - transport errors opening or reading the backend response → failover;
//   - mid-stream typed retryable error lines (server_overloaded,
//     shutting_down, …) → failover, line withheld;
//   - open-time typed refusals (a shed 503, unknown model, bad request) →
//     relayed verbatim, NO failover: the affine backend's answer is the
//     answer, and capacity attribution must stay honest;
//   - non-retryable mid-stream error lines (bad_input for a torn frame) →
//     forwarded verbatim, stream over;
//   - an unparseable uplink poisons the journal: sample accounting is gone,
//     failover is disabled, bytes flow through raw and the backend's own
//     typed verdict reaches the client untouched.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"rpbeat/internal/apierr"
	"rpbeat/internal/serve"
	"rpbeat/internal/wire"
)

// errAttemptSuperseded fails a backend attempt's body once the attempt is
// over: superseded by a failover, torn down with the relay, or closed.
var errAttemptSuperseded = errors.New("gate: relay attempt superseded by failover")

// relayStream is the /v1/stream relay, with transparent failover.
func (g *Gateway) relayStream(w http.ResponseWriter, r *http.Request, b *backend) {
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil && r.ProtoMajor == 1 {
		serve.WriteErr(w, apierr.New(apierr.CodeInternal, "full-duplex streaming unsupported: %v", err))
		return
	}

	j := newJournal(g.window, wire.NewUplinkReader(r.Body, wire.IsSampleContentType(r.Header.Get("Content-Type"))))
	defer func() {
		// Nothing may read r.Body after this handler returns. Closing the
		// journal stops every body before its next client read, a read
		// deadline cuts short one still blocked on a quiet client, and the
		// pull lock waits it out. An uplink that has reached its EOF gets no
		// deadline: net/http's background read owns the connection by then,
		// and failing that read would cancel the connection's next request.
		if !j.close() {
			rc.SetReadDeadline(time.Now().Add(serve.UplinkGrace))
		}
		j.pull.Lock()
		j.pull.Unlock()
		serve.EndUplink(w, r.Body)
	}()

	bp := g.bufs.Get().(*[]byte)
	defer g.bufs.Put(bp)
	d := &downlink{w: w, flush: rc.Flush, watermark: -1, buf: *bp}

	key := affinityKey(r)
	attemptsLeft := len(g.members) // every backend gets at most one shot
	headersSent := false
	cur := b
	for attempt := 0; ; attempt++ {
		attemptsLeft--
		body, base := j.resetForAttempt()
		out, err := backendRequest(r, cur, body)
		if err != nil {
			g.failStream(w, rc.Flush, headersSent, d,
				apierr.New(apierr.CodeInternal, "gateway: building backend request: %v", err))
			return
		}
		if attempt > 0 {
			out.Header.Set(wire.ResumeFromHeader, strconv.FormatInt(base, 10))
		}

		// lost says why cur cannot carry the stream on. A successor that
		// refuses the resumed stream is no new loss, so moving past it is
		// not counted as a failover hop.
		var lost *apierr.Error
		hop := true
		cur.inflight.Add(1)
		resp, err := g.client.Do(out)
		if err == nil {
			cur.noteStatus(resp.StatusCode)
		}
		switch {
		case err != nil && r.Context().Err() != nil:
			cur.inflight.Add(-1)
			if !headersSent {
				serve.WriteErr(w, r.Context().Err()) // the client gave up, not the backend
			}
			return
		case err != nil:
			cur.inflight.Add(-1)
			g.noteBackendError(cur, err)
			lost = apierr.New(apierr.CodeServerOverloaded, "gateway: backend %s unreachable: %v", cur.url, err)
		case resp.StatusCode != http.StatusOK && headersSent:
			// A successor refused the resumed stream; try the next one.
			drainClose(resp.Body)
			cur.inflight.Add(-1)
			lost = apierr.New(apierr.CodeServerOverloaded, "gateway: no backend accepted the resumed stream")
			hop = false
		default:
			if !headersSent {
				relayHeader(w, resp, cur)
				headersSent = true
			}
			if resp.StatusCode != http.StatusOK {
				// An open-time typed refusal relays verbatim; see the
				// taxonomy above.
				RelayCopy(w, rc.Flush, resp.Body, d.buf)
				resp.Body.Close()
				cur.inflight.Add(-1)
				return
			}
			outcome := d.run(resp.Body, attempt > 0, j)
			resp.Body.Close()
			cur.inflight.Add(-1)
			switch outcome {
			case outDone:
				cur.relayed.Add(1)
				return
			case outFatal, outClientGone:
				return
			}
			// outFailover
			if d.causeTransport {
				g.noteBackendError(cur, d.cause)
			}
			lost = apierr.New(apierr.CodeServerOverloaded, "gateway: backend %s lost mid-stream: %v", cur.url, d.cause)
		}

		// Resume on the next routable backend for the key, provided the
		// journal is still exact and the attempt budget is not spent.
		var next *backend
		if attemptsLeft > 0 && j.exact() {
			next = g.pick(key, cur)
		}
		if next == nil {
			g.failStream(w, rc.Flush, headersSent, d, lost)
			return
		}
		if hop {
			g.failovers.Add(1)
		}
		cur = next
	}
}

// failStream ends a stream the relay could not save. Before headers: a plain
// typed response. Mid-stream: the backend's own withheld error line when
// there is one (it said why it stopped; no successor could take over), the
// gateway's typed trailing line otherwise — a contract error either way,
// never a torn line.
func (g *Gateway) failStream(w http.ResponseWriter, flush func() error, headersSent bool, d *downlink, ae *apierr.Error) {
	if !headersSent {
		serve.WriteErr(w, ae)
		return
	}
	if len(d.heldLine) > 0 {
		w.Write(d.heldLine)
		flush()
		return
	}
	bp := lineBufs.Get().(*[]byte)
	line := wire.AppendError((*bp)[:0], string(ae.Code), ae.Message)
	w.Write(line)
	flush()
	*bp = line[:0]
	lineBufs.Put(bp)
}

// --- downlink ---

// relayOutcome is how one backend attempt's downlink ended.
type relayOutcome int

const (
	outDone       relayOutcome = iota // done line delivered; stream complete
	outFatal                          // non-retryable error line forwarded; stream over
	outClientGone                     // the client side failed; nothing to save
	outFailover                       // the backend was lost or bowed out retryably
)

var (
	beatPrefix = []byte(`{"sample":`)
	donePrefix = []byte(`{"done":`)
	errPrefix  = []byte(`{"error":`)
)

// downlink parses backend response bytes line by line, forwarding whole
// lines to the client: duplicates of already-delivered beats are suppressed
// by sample index, the done line is rewritten with stream totals after a
// failover, and protocol lines decide the attempt's outcome. State persists
// across attempts — the watermark and delivered count are per-stream.
type downlink struct {
	w     io.Writer
	flush func() error

	watermark int64 // sample index of the last beat delivered to the client
	delivered int   // beat lines delivered across all attempts

	carry []byte // partial trailing line of the current attempt
	buf   []byte // pooled read buffer

	// outFailover detail for the caller.
	cause          error
	causeTransport bool   // counts against the backend's failure budget
	heldLine       []byte // the withheld retryable error line, verbatim
}

// run relays one backend attempt's response body. rewrite is set on failover
// attempts: replayed duplicates are suppressed and the done line is
// rewritten with stream totals. A stream that never failed over forwards its
// bytes verbatim.
func (d *downlink) run(body io.Reader, rewrite bool, j *journal) relayOutcome {
	d.carry = d.carry[:0]
	d.heldLine = d.heldLine[:0]
	d.cause = nil
	d.causeTransport = false
	for {
		n, err := body.Read(d.buf)
		if n > 0 {
			if out, ended := d.process(d.buf[:n], rewrite, j); ended {
				return out
			}
		}
		if err != nil {
			// The body ended without a done line: the backend died. (EOF
			// here is just death on a line boundary; a partial carry line is
			// discarded — its beats replay whole on the next attempt, so the
			// client never sees a torn line.)
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			d.cause = err
			d.causeTransport = true
			return outFailover
		}
	}
}

// process scans one read's worth of downlink bytes, coalescing forwarded
// lines into spans (one client write per contiguous run, one flush per
// read). ended=true means this read decided the attempt's outcome.
func (d *downlink) process(p []byte, rewrite bool, j *journal) (out relayOutcome, ended bool) {
	data := p
	if len(d.carry) > 0 {
		d.carry = append(d.carry, p...)
		data = d.carry
	}
	span := -1 // start of the pending forward span
	wrote := false
	emit := func(end int) bool { // close the open span; false = client gone
		if span >= 0 && end > span {
			if _, err := d.w.Write(data[span:end]); err != nil {
				return false
			}
			wrote = true
		}
		span = -1
		return true
	}
	i := 0
	for {
		nl := bytes.IndexByte(data[i:], '\n')
		if nl < 0 {
			break
		}
		lineEnd := i + nl + 1
		line := data[i:lineEnd]
		switch {
		case bytes.HasPrefix(line, beatPrefix):
			s, ok := parseBeatSample(line)
			if ok && s <= d.watermark {
				// A replayed duplicate the client already has.
				if !emit(i) {
					return outClientGone, true
				}
			} else {
				if span < 0 {
					span = i
				}
				if ok {
					d.watermark = s
					d.delivered++
					// Anchor journal retention: this beat is
					// committed to the client, so replay never
					// needs to reach past window samples before
					// it.
					j.ack(s + 1)
				}
			}
		case bytes.HasPrefix(line, donePrefix):
			if rewrite {
				if !emit(i) {
					return outClientGone, true
				}
				if !d.writeDoneLine(line, j) {
					return outClientGone, true
				}
			} else {
				if span < 0 {
					span = i
				}
				if !emit(lineEnd) {
					return outClientGone, true
				}
			}
			d.flush()
			return outDone, true
		case bytes.HasPrefix(line, errPrefix):
			if ae := decodeTypedError(bytes.NewReader(line)); ae != nil && ae.Retryable() && j.exact() {
				// The backend bowed out retryably mid-stream: withhold the
				// line; the caller fails over, or forwards it when it can't.
				if !emit(i) {
					return outClientGone, true
				}
				if wrote {
					d.flush()
				}
				d.heldLine = append(d.heldLine[:0], line...)
				d.cause = apierr.New(ae.Code, "backend ended the stream retryably")
				d.causeTransport = false
				d.carry = d.carry[:0]
				return outFailover, true
			}
			if span < 0 {
				span = i
			}
			if !emit(lineEnd) {
				return outClientGone, true
			}
			d.flush()
			return outFatal, true
		default:
			// Unknown line shape: forward it untouched.
			if span < 0 {
				span = i
			}
		}
		i = lineEnd
	}
	if !emit(i) {
		return outClientGone, true
	}
	// Stash the partial trailing line. copy handles the overlapping
	// merged-carry case; append the fresh-read one.
	tail := data[i:]
	if len(d.carry) > 0 {
		d.carry = d.carry[:copy(d.carry, tail)]
	} else {
		d.carry = append(d.carry[:0], tail...)
	}
	if wrote {
		if err := d.flush(); err != nil {
			return outClientGone, true
		}
	}
	return 0, false
}

// writeDoneLine rewrites the backend's done summary with stream-total
// accounting: beats as delivered to the client across every attempt, samples
// as journaled from the client's own uplink.
func (d *downlink) writeDoneLine(line []byte, j *journal) bool {
	var dn struct {
		Model string `json:"model"`
	}
	json.Unmarshal(line, &dn)
	bp := lineBufs.Get().(*[]byte)
	out := wire.AppendStreamDone((*bp)[:0], dn.Model, d.delivered, int(j.samples()))
	_, err := d.w.Write(out)
	*bp = out[:0]
	lineBufs.Put(bp)
	return err == nil
}

// parseBeatSample extracts the sample index from a beat line — the bytes
// right after {"sample": — without a JSON decode.
func parseBeatSample(line []byte) (int64, bool) {
	p := line[len(beatPrefix):]
	var v int64
	i := 0
	for ; i < len(p) && p[i] >= '0' && p[i] <= '9'; i++ {
		v = v*10 + int64(p[i]-'0')
	}
	return v, i > 0
}
