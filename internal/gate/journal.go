package gate

// The per-stream replay journal behind transparent mid-stream failover.
//
// A journal tees the client's uplink: every unit (one binary frame or one
// NDJSON chunk line) is copied verbatim into its entry ring slot's own
// recycled buffer, tagged with its sample count and absolute base index.
// Each backend attempt's request body is a journalBody, a reader that
// follows a cursor over the entries and is the only reader of the client:
// a Read that has sent every journaled entry reads the client's next unit,
// journals it and sends it, so nothing is read ahead of the backend. When
// that backend dies, resetForAttempt rewinds the cursor to the oldest
// retained entry and hands the next attempt a fresh body that replays from
// there, opening with the entry's base as the resume handshake.
//
// Retention is anchored to delivered beats, not to uplink progress: the
// downlink acks the watermark as it forwards beat lines, and every append
// evicts each oldest entry that the attempt's body has sent while the
// entries that remain still reach back at least `window` samples behind
// that watermark — window being the deterministic-resync bound
// (pipeline.ResyncWarmup), the replay depth that makes every beat the
// client has NOT yet seen regenerate bit-identically on the successor.
// Anchoring to the watermark rather than to journaled totals matters when
// the backend races ahead of its downlink: beats it emitted but never
// delivered must still be reproducible, so the samples that produced them
// must still be in the journal. A body appends only once it has sent
// everything before the new unit, so only the watermark holds eviction up
// and an append never waits. Retention is bounded in practice by beat
// spacing plus pipeline delay, and hard-capped at maxJournalBytes, past
// which the journal poisons itself: replay capability is surrendered (a
// backend lost after that ends the stream with a typed error line), and
// memory stays bounded.
//
// Concurrency: the handler (acks, attempt resets, teardown) and the
// transport's write loops (body Reads) meet in two locks, always taken in
// this order: pull, then mu. pull serializes reads of the client and is held
// across one, outside mu; mu guards everything else and is never held while
// the client is read.

import (
	"io"
	"sync"
	"unsafe"

	"rpbeat/internal/wire"
)

// maxJournalBytes caps the heap the journal holds: its entry ring's slots
// and every slot buffer's capacity, live or kept for reuse. A stream whose
// retention needs more than this (pathologically, a signal with no beats to
// anchor eviction) trades failover for bounded memory via poison.
const maxJournalBytes = 32 << 20

// maxSlotKeep bounds the buffer an evicted slot keeps for its next unit, so
// a rare huge unit does not pin its bytes in the ring once it is evicted.
const maxSlotKeep = 64 << 10

// minJournalSlots is the entry ring's smallest size; slotBytes is what one
// slot costs before its buffer.
const (
	minJournalSlots = 64
	slotBytes       = int(unsafe.Sizeof(jentry{}))
)

// jentry is one journaled uplink unit: its verbatim bytes in the slot's own
// buffer, its sample count, and the absolute index of its first sample.
type jentry struct {
	buf     []byte
	samples int
	base    int64
}

type journal struct {
	pull    sync.Mutex         // held across one client read; taken before mu
	uplink  *wire.UplinkReader // the client; read only under pull
	rawRest bool               // a malformed unit arrived: journal the rest raw (under pull)

	mu      sync.Mutex
	ents    []jentry // entry ring
	head    int      // ring index of the oldest live entry
	count   int
	headSeq int64 // sequence number of ents[head]
	bytes   int   // heap held: the ring's slots and their buffers' capacity

	total  int64 // samples journaled so far (the next entry's base)
	acked  int64 // samples delivered: last forwarded beat's index + 1
	window int   // minimum samples retained behind the ack watermark

	cursor int64 // seq of the next entry the current attempt sends
	sent   int   // bytes of the cursor entry already sent
	gen    int   // attempt generation; a stale body sees a mismatch and fails

	done     bool // uplink ended: drain, then end the body
	closed   bool // relay torn down: appends refused, bodies fail
	poisoned bool // sample accounting gone or retention over budget: failover off
}

// newJournal journals the units of uplink, the client's request body.
func newJournal(window int, uplink *wire.UplinkReader) *journal {
	return &journal{window: window, uplink: uplink}
}

// append journals one uplink unit (raw bytes, verbatim) carrying `samples`
// samples, after evicting every entry retention no longer needs. It
// returns false once the journal is closed. Steady-state appends recycle
// the slots' buffers and allocate nothing; resizing the ring lives in the
// unannotated helper.
//
//rpbeat:allocfree
func (j *journal) append(raw []byte, samples int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return false
	}
	for j.evictLocked() {
	}
	need := len(raw) // an upper bound: the slot may reuse its buffer
	if j.count == len(j.ents) {
		need += max(len(j.ents), minJournalSlots) * slotBytes
	}
	if !j.poisoned && j.bytes+need > maxJournalBytes {
		// Retention outgrew its budget: give up replay capability rather
		// than memory, then recycle what the body has sent.
		j.poisoned = true
		for j.evictLocked() {
		}
	}
	if j.count == len(j.ents) || (len(j.ents) > minJournalSlots && j.count < len(j.ents)/4) {
		j.resizeEnts()
	}
	e := &j.ents[(j.head+j.count)%len(j.ents)]
	kept := cap(e.buf)
	e.buf = append(e.buf[:0], raw...)
	e.samples, e.base = samples, j.total
	j.count++
	j.bytes += cap(e.buf) - kept
	j.total += int64(samples)
	return true
}

// evictLocked drops the oldest entry when the current attempt has sent it
// and the remaining entries still reach window samples behind the ack
// watermark — so every undelivered beat stays regenerable. A poisoned
// journal retains nothing beyond what the body still needs.
func (j *journal) evictLocked() bool {
	if j.count < 2 || j.cursor <= j.headSeq {
		return false
	}
	if !j.poisoned && j.acked-j.ents[(j.head+1)%len(j.ents)].base < int64(j.window) {
		return false
	}
	e := &j.ents[j.head]
	if cap(e.buf) > maxSlotKeep {
		j.bytes -= cap(e.buf)
		e.buf = nil
	}
	j.head = (j.head + 1) % len(j.ents)
	j.count--
	j.headSeq++
	return true
}

// resizeEnts doubles the entry ring when it is full and otherwise halves it
// while under a quarter of it is live, down to minJournalSlots. The live
// entries move to the front of the new ring with their buffers; the free
// slots left behind take theirs along, so a ring that a burst of unacked
// units grew does not keep a buffer in every slot the stream cycles through.
func (j *journal) resizeEnts() {
	size := max(2*len(j.ents), minJournalSlots)
	if j.count < len(j.ents) {
		size = len(j.ents)
		for size > minJournalSlots && j.count < size/4 {
			size /= 2
		}
	}
	next := make([]jentry, size)
	for i := range j.ents {
		e := &j.ents[(j.head+i)%len(j.ents)]
		if i < j.count {
			next[i] = *e
		} else {
			j.bytes -= cap(e.buf)
		}
	}
	j.bytes += (size - len(j.ents)) * slotBytes
	j.ents, j.head = next, 0
}

// resetForAttempt rewinds the replay cursor for a new relay attempt and
// returns the attempt's request body plus the absolute sample index its
// bytes start at — the X-Rpbeat-Resume-From value. The first attempt
// resolves to base 0 (nothing consumed yet); later ones to the oldest
// retained entry, which retention guarantees sits at least `window` samples
// behind the failure point once the stream is past its own start.
func (j *journal) resetForAttempt() (body *journalBody, base int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.gen++
	j.cursor = j.headSeq
	j.sent = 0
	base = j.total
	if j.count > 0 {
		base = j.ents[j.head].base
	}
	return &journalBody{j: j, gen: j.gen}, base
}

// journalBody is one relay attempt's backend request body: a reader that
// follows the journal cursor, so the transport's write loop sends journal
// entries straight from their slots, and pulls the client's next unit once
// every entry went out.
type journalBody struct {
	j      *journal
	gen    int
	closed bool // guarded by j.mu
}

// Read copies the attempt's next journaled bytes into p; with every entry
// sent, it first reads the client's next unit into the journal. It returns
// io.EOF once the uplink has ended and every entry went out, and fails once
// a failover supersedes the attempt, the relay is torn down or the body is
// closed. Copying under mu keeps every slot access serialized: a stale
// attempt can never race a recycled slot.
//
//rpbeat:allocfree
func (b *journalBody) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	j := b.j
	for {
		j.mu.Lock()
		if b.closed || j.closed || b.gen != j.gen {
			j.mu.Unlock()
			return 0, errAttemptSuperseded
		}
		n := 0
		for n < len(p) && j.cursor < j.headSeq+int64(j.count) {
			e := j.ents[(j.head+int(j.cursor-j.headSeq))%len(j.ents)].buf
			c := copy(p[n:], e[j.sent:])
			n += c
			if j.sent += c; j.sent == len(e) {
				j.cursor++
				j.sent = 0
			}
		}
		done := j.done
		j.mu.Unlock()
		switch {
		case n > 0:
			return n, nil
		case done:
			return 0, io.EOF
		}
		b.pull(p)
	}
}

// pull reads the client's next unit into the journal. Holding the pull
// lock, it first re-checks under mu that b's attempt is current, the
// journal open and the cursor at its end: while it waited for the lock, the
// attempt may have been superseded, the relay torn down, the uplink ended,
// or another Read may have journaled a unit b has not sent. The unit is
// read outside mu and journaled whatever happens to the attempt meanwhile,
// so a superseded Read leaves it to its successor. A unit
// wire.UplinkReader rejects poisons the journal, and the rest of the uplink
// is journaled raw so the backend can deliver its own typed verdict; EOF or
// a client transport error ends the uplink. p is the Read's buffer,
// borrowed for raw reads.
func (b *journalBody) pull(p []byte) {
	j := b.j
	j.pull.Lock()
	defer j.pull.Unlock()
	j.mu.Lock()
	ready := !b.closed && !j.closed && b.gen == j.gen && !j.done &&
		j.cursor == j.headSeq+int64(j.count)
	j.mu.Unlock()
	if !ready {
		return
	}
	if j.rawRest {
		n, err := j.uplink.Read(p)
		if n > 0 {
			j.append(p[:n], 0)
		}
		if err != nil {
			j.end()
		}
		return
	}
	raw, samples, err := j.uplink.Next()
	switch {
	case err == nil:
		j.append(raw, len(samples))
	case wire.Malformed(err):
		j.rawRest = true
		j.mu.Lock()
		j.poisoned = true
		j.mu.Unlock()
		j.append(raw, 0)
	default:
		j.end()
	}
}

// end marks the uplink ended: no more units are coming, and the current
// body ends with io.EOF once it has sent what remains.
func (j *journal) end() {
	j.mu.Lock()
	j.done = true
	j.mu.Unlock()
}

// Close fails the body's later Reads; the transport closes the body once it
// is done with the request.
func (b *journalBody) Close() error {
	b.j.mu.Lock()
	b.closed = true
	b.j.mu.Unlock()
	return nil
}

// close tears the journal down: appends return false, bodies fail before
// their next client read. It reports whether the uplink had already ended.
// Safe to call more than once.
func (j *journal) close() (uplinkEnded bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
	return j.done
}

// ack records delivery progress: the downlink forwarded a beat whose sample
// index is samples-1, so replay never needs to reach further back than
// window samples before it. Monotone; stale attempts can only re-ack lower.
func (j *journal) ack(samples int64) {
	j.mu.Lock()
	j.acked = max(j.acked, samples)
	j.mu.Unlock()
}

// exact reports that every journaled byte carries trustworthy sample
// accounting — the precondition for failover.
func (j *journal) exact() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.poisoned
}

// samples returns the total samples journaled so far.
func (j *journal) samples() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}
