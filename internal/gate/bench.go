package gate

// Benchmark access to unexported hot paths. The repo benchmark (benchmark/)
// reports the replay journal's steady-state append cost as
// gate.journal_append_ns; the journal type itself stays private to the
// package.

// JournalBench drives one replay journal through its steady-state cycle —
// append a unit, backend-body read, delivery ack — as a live relay does
// once warm, less the client read a live body's Read makes before its
// append. Warm it up for a few hundred steps before measuring so the entry
// ring and its slot buffers reach their recycled fixed point.
type JournalBench struct {
	j     *journal
	body  *journalBody
	buf   []byte
	raw   []byte
	unit  int64
	total int64
}

// NewJournalBench builds a journal with the given retention window and a
// synthetic uplink unit of unitBytes bytes carrying unitSamples samples.
func NewJournalBench(window, unitBytes, unitSamples int) *JournalBench {
	b := &JournalBench{
		j:    newJournal(window, nil), // Step appends every unit its Read sends
		raw:  make([]byte, unitBytes),
		buf:  make([]byte, unitBytes),
		unit: int64(unitSamples),
	}
	for i := range b.raw {
		b.raw[i] = byte(i)
	}
	b.body, _ = b.j.resetForAttempt()
	return b
}

// Step runs one append+read+ack cycle and reports whether the journal
// accepted it. Steady-state steps allocate nothing.
func (b *JournalBench) Step() bool {
	if !b.j.append(b.raw, int(b.unit)) {
		return false
	}
	b.total += b.unit
	if _, err := b.body.Read(b.buf); err != nil {
		return false
	}
	b.j.ack(b.total)
	return true
}
