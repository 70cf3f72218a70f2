package gate

// The per-stream replay journal behind transparent mid-stream failover.
//
// A journal tees the client's uplink: every parsed unit (one binary frame or
// one NDJSON chunk line) is copied verbatim into a recycled byte arena,
// tagged with its sample count and absolute base index. Each backend
// attempt's request body is a journalBody, a reader that follows a cursor
// over the entries, so the transport copies them straight out of the arena;
// when that backend dies, resetForAttempt rewinds the cursor to the oldest
// retained entry and hands the next attempt a fresh body that replays from
// there, opening with the entry's base as the resume handshake.
//
// Retention is anchored to delivered beats, not to uplink progress: the
// downlink acks the watermark as it forwards beat lines, and an entry is
// evicted only once the attempt's body has read it AND the entries that
// remain still reach back at least `window` samples behind that watermark —
// window being the deterministic-resync bound (pipeline.ResyncWarmup), the
// replay depth that makes every beat the client has NOT yet seen regenerate
// bit-identically on the successor. Anchoring to the watermark rather than
// to journaled totals matters when the backend races ahead of its downlink:
// beats it emitted but never delivered must still be reproducible, so the
// samples that produced them must still be in the journal. Entries never
// wrap the arena (placement skips to offset zero instead), so every entry
// is one contiguous span.
//
// Two different things can hold an eviction up, and they get opposite
// treatment. When the body lags (a slow backend) appends block on the
// condition variable until the cursor advances — the same backpressure a
// plain byte relay gets from the HTTP connection's flow control. When the
// ack watermark lags (beats simply haven't arrived yet) appends must NOT
// block: the backend needs future samples to produce the very beats that
// would advance the watermark, so blocking would deadlock the stream.
// Those appends grow the arena instead — bounded in practice by beat
// spacing plus pipeline delay, and hard-capped at maxJournalArena, past
// which the journal poisons itself: replay capability is surrendered (a
// backend lost after that ends the stream with a typed error line), and
// memory stays bounded.

import (
	"io"
	"sync"
)

// maxJournalArena caps the replay arena. A stream whose retention needs
// more than this (pathologically, a signal with no beats to anchor
// eviction) trades failover for bounded memory via poison.
const maxJournalArena = 32 << 20

// jentry is one journaled uplink unit: a contiguous byte span in the arena,
// its sample count, and the absolute index of its first sample.
type jentry struct {
	off, n  int
	samples int
	base    int64
}

type journal struct {
	mu   sync.Mutex
	cond sync.Cond

	arena []byte
	wOff  int // next arena write offset

	ents    []jentry // entry ring
	head    int      // ring index of the oldest live entry
	count   int
	headSeq int64 // sequence number of ents[head]

	total  int64 // samples journaled so far (the next entry's base)
	acked  int64 // samples delivered: last forwarded beat's index + 1
	window int   // minimum samples retained behind the ack watermark

	cursor int64 // seq of the next entry the current attempt sends
	sent   int   // bytes of the cursor entry already sent
	gen    int   // attempt generation; a stale body sees a mismatch and fails

	done     bool // uplink ended cleanly: drain, then end the body
	closed   bool // relay torn down: appends refused, bodies fail
	poisoned bool // uplink unparseable: sample accounting gone, failover off
}

func newJournal(window int) *journal {
	j := &journal{window: window}
	j.cond.L = &j.mu
	return j
}

// append journals one uplink unit (raw bytes, verbatim) carrying `samples`
// samples. It blocks when the only space is still unsent (backpressure) and
// returns false once the journal is closed. Steady-state appends recycle
// evicted arena space and allocate nothing; growth lives in the unannotated
// helpers.
//
//rpbeat:allocfree
func (j *journal) append(raw []byte, samples int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.closed {
			return false
		}
		if j.count == len(j.ents) {
			if j.evictLocked() {
				continue
			}
			if j.cursorBlocked() {
				j.cond.Wait()
				continue
			}
			j.growEnts()
			continue
		}
		off, ok := j.placeLocked(len(raw))
		if !ok {
			if j.evictLocked() {
				continue
			}
			if j.cursorBlocked() {
				j.cond.Wait()
				continue
			}
			if len(j.arena) >= maxJournalArena {
				// Retention outgrew its budget: give up replay
				// capability rather than memory, then recycle.
				j.poisonLocked()
				continue
			}
			j.growArena(len(raw))
			continue
		}
		copy(j.arena[off:], raw)
		j.ents[(j.head+j.count)%len(j.ents)] = jentry{
			off: off, n: len(raw), samples: samples, base: j.total,
		}
		j.count++
		j.wOff = off + len(raw)
		j.total += int64(samples)
		j.cond.Broadcast()
		return true
	}
}

// evictLocked drops the oldest entry when the current attempt has sent it
// and the remaining entries still reach window samples behind the ack
// watermark — so every undelivered beat stays regenerable. A poisoned
// journal retains nothing beyond what the body still needs.
func (j *journal) evictLocked() bool {
	if j.count < 2 || j.cursor <= j.headSeq {
		return false
	}
	if !j.poisoned {
		second := j.ents[(j.head+1)%len(j.ents)]
		if j.acked-second.base < int64(j.window) {
			return false
		}
	}
	j.head = (j.head + 1) % len(j.ents)
	j.count--
	j.headSeq++
	return true
}

// cursorBlocked reports that eviction is held up only by the attempt's body
// (the head entry is still unsent) — the append should wait, not grow. When
// the blocker is the ack watermark instead, waiting would deadlock: the
// backend needs future samples to emit the beats that advance it.
func (j *journal) cursorBlocked() bool {
	if j.count < 2 || j.cursor > j.headSeq {
		return false
	}
	if j.poisoned {
		return true
	}
	second := j.ents[(j.head+1)%len(j.ents)]
	return j.acked-second.base >= int64(j.window)
}

// placeLocked finds a contiguous arena span of n bytes that overlaps no live
// entry. Live bytes occupy the circular region [headOff, wOff); placement
// tries the current write offset first and skips to zero rather than
// wrapping an entry across the arena end.
func (j *journal) placeLocked(n int) (int, bool) {
	if n > len(j.arena) {
		return 0, false
	}
	if j.count == 0 {
		return 0, true
	}
	headOff := j.ents[j.head].off
	if j.wOff == headOff {
		return 0, false // the live region covers the whole arena
	}
	if j.wOff > headOff {
		if n <= len(j.arena)-j.wOff {
			return j.wOff, true
		}
		if n <= headOff {
			return 0, true
		}
		return 0, false
	}
	if n <= headOff-j.wOff {
		return j.wOff, true
	}
	return 0, false
}

// growArena reallocates the arena (compacting live entries to the front) so
// an n-byte entry fits alongside everything retention still needs.
func (j *journal) growArena(n int) {
	need := n
	for i := 0; i < j.count; i++ {
		need += j.ents[(j.head+i)%len(j.ents)].n
	}
	size := 2 * len(j.arena)
	if size < 2*need {
		size = 2 * need
	}
	if size < 16<<10 {
		size = 16 << 10
	}
	next := make([]byte, size)
	w := 0
	for i := 0; i < j.count; i++ {
		e := &j.ents[(j.head+i)%len(j.ents)]
		copy(next[w:], j.arena[e.off:e.off+e.n])
		e.off = w
		w += e.n
	}
	j.arena = next
	j.wOff = w
}

func (j *journal) growEnts() {
	size := 2 * len(j.ents)
	if size < 64 {
		size = 64
	}
	next := make([]jentry, size)
	for i := 0; i < j.count; i++ {
		next[i] = j.ents[(j.head+i)%len(j.ents)]
	}
	j.ents = next
	j.head = 0
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
	j.cond.Broadcast()
	return &journalBody{j: j, gen: j.gen}, base
}

// journalBody is one relay attempt's backend request body: a reader that
// follows the journal cursor, so the transport's write loop sends journal
// entries straight from the arena.
type journalBody struct {
	j      *journal
	gen    int
	closed bool // guarded by j.mu
}

// Read copies the attempt's next journaled bytes into p, waiting until
// there are some. It returns io.EOF once the uplink has ended and every
// entry went out, and fails once a failover supersedes the attempt, the
// relay is torn down or the body is closed. Copying under the lock keeps
// every arena access serialized: a stale attempt can never race recycled
// arena space.
//
//rpbeat:allocfree
func (b *journalBody) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	j := b.j
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if b.closed || j.closed || b.gen != j.gen {
			return 0, errAttemptSuperseded
		}
		n := 0
		for n < len(p) && j.cursor < j.headSeq+int64(j.count) {
			e := j.ents[(j.head+int(j.cursor-j.headSeq))%len(j.ents)]
			c := copy(p[n:], j.arena[e.off+j.sent:e.off+e.n])
			n += c
			if j.sent += c; j.sent == e.n {
				j.cursor++
				j.sent = 0
			}
		}
		if n > 0 {
			j.cond.Broadcast()
			return n, nil
		}
		if j.done {
			return 0, io.EOF
		}
		j.cond.Wait()
	}
}

// Close releases a Read blocked on this attempt; the transport closes the
// body once it is done with the request.
func (b *journalBody) Close() error {
	b.j.mu.Lock()
	b.closed = true
	b.j.cond.Broadcast()
	b.j.mu.Unlock()
	return nil
}

// finish marks the uplink cleanly ended: no more appends are coming, and the
// current body ends with io.EOF once it has read what remains.
func (j *journal) finish() {
	j.mu.Lock()
	j.done = true
	j.cond.Broadcast()
	j.mu.Unlock()
}

// close tears the journal down: appends return false, bodies fail. It
// reports whether the uplink had already ended. Safe to call more than once.
func (j *journal) close() (uplinkEnded bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
	j.cond.Broadcast()
	return j.done
}

// ack records delivery progress: the downlink forwarded a beat whose sample
// index is samples-1, so replay never needs to reach further back than
// window samples before it. Monotone; stale attempts can only re-ack lower.
func (j *journal) ack(samples int64) {
	j.mu.Lock()
	if samples > j.acked {
		j.acked = samples
		j.cond.Broadcast()
	}
	j.mu.Unlock()
}

// poison turns replay off for good: the uplink stopped being parseable (or
// retention blew its budget), so failover is no longer possible. Retention
// ends — consumed entries recycle immediately and a poisoned stream cannot
// grow the arena without bound.
func (j *journal) poison() {
	j.mu.Lock()
	j.poisonLocked()
	j.mu.Unlock()
}

func (j *journal) poisonLocked() {
	j.poisoned = true
	j.cond.Broadcast()
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
