// Package beatset assembles the heartbeat datasets of the paper's Table I:
// a synthetic database whose per-class composition matches the MIT-BIH
// Arrhythmia Database exactly (74355 N, 8039 L, 6618 V beats across 48
// records), plus the two training excerpts (450 and 12000 beats) drawn from
// it. Each beat is a 200-sample window (100 before + 100 after the R peak)
// at 360 Hz, stored as 11-bit ADC counts.
//
// The record inventory mirrors the structure of the real database: four
// LBBB-subject records carry all L beats, a set of ectopy-prone records
// carries most V beats, and the rest are predominantly normal. Every record
// gets its own synthetic subject (morphology, noise level, heart rate), so
// inter-record variability is present in both training and test data, as it
// is in the real recordings.
package beatset

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"rpbeat/internal/ecgsyn"
	"rpbeat/internal/rng"
)

// The beat window around the R peak (Sec. IV-A: "each heartbeat as spanning
// 100 samples before and 100 samples after its peak"): the geometry every
// trained model's input dimension follows, and the window the node's
// classification paths (internal/pipeline, internal/wbsn) cut.
const (
	Before = 100
	After  = 100
)

// Table I targets.
const (
	Train1PerClass = 150
	Train2N        = 10024
	Train2V        = 892
	Train2L        = 1084
	TestN          = 74355
	TestV          = 6618
	TestL          = 8039
)

// Beat is one windowed heartbeat.
type Beat struct {
	Record  string
	Class   ecgsyn.Class
	Samples []int16 // ADC counts, length Before+After
}

// RecordProfile is the per-record beat composition of the synthetic DB.
type RecordProfile struct {
	Name string
	N    int
	L    int
	V    int
}

// Inventory returns the 48-record composition. L beats live in the four
// LBBB records (mirroring MIT-BIH records 109, 111, 207 and 214); V beats
// concentrate in the ectopy-prone records; totals match Table I exactly
// (checked by TestInventoryMatchesTableI).
func Inventory() []RecordProfile {
	names := []string{
		"100", "101", "102", "103", "104", "105", "106", "107", "108", "109",
		"111", "112", "113", "114", "115", "116", "117", "118", "119", "121",
		"122", "123", "124", "200", "201", "202", "203", "205", "207", "208",
		"209", "210", "212", "213", "214", "215", "217", "219", "220", "221",
		"222", "223", "228", "230", "231", "232", "233", "234",
	}
	l := map[string]int{"109": 2492, "111": 2123, "207": 1421, "214": 2003}
	v := map[string]int{
		"109": 38, "111": 1, "207": 105, "214": 256,
		"106": 520, "119": 444, "200": 826, "201": 198, "203": 444,
		"205": 71, "208": 992, "210": 194, "213": 220, "215": 164,
		"219": 64, "221": 396, "223": 473, "228": 362, "233": 830, "116": 20,
	}
	profiles := make([]RecordProfile, len(names))
	// N beats: LBBB records carry none (as in the real DB); the others get a
	// deterministic pseudo-varied count, with the final non-LBBB record
	// absorbing the remainder so the total is exact.
	nTotal := 0
	lastNonLBBB := -1
	for i, name := range names {
		p := RecordProfile{Name: name, L: l[name], V: v[name]}
		if p.L == 0 {
			p.N = 1400 + (i*137)%600
			nTotal += p.N
			lastNonLBBB = i
		}
		profiles[i] = p
	}
	profiles[lastNonLBBB].N += TestN - nTotal
	return profiles
}

// Config parameterizes dataset construction.
type Config struct {
	// Seed drives subject synthesis and split sampling.
	Seed uint64
	// Var overrides beat variability (nil = ecgsyn.DefaultVariability).
	Var *ecgsyn.VariabilityConfig
	// Scale shrinks every per-record class count to ceil(count*Scale) —
	// used by tests and quick benchmarks. Scale <= 0 or >= 1 means full size.
	Scale float64
	// Parallel bounds worker goroutines; default NumCPU.
	Parallel int
}

func (c Config) withDefaults() Config {
	if c.Parallel <= 0 {
		c.Parallel = runtime.NumCPU()
	}
	return c
}

// Dataset is the assembled beat database with its standard splits. The test
// set is the entire database (as in the paper); the training sets are
// disjoint from each other but, like the paper's excerpts, drawn from the
// same records as the test data.
type Dataset struct {
	Beats  []Beat
	Train1 []int // indexes into Beats: 150 beats per class
	Train2 []int // 10024 N, 1084 L, 892 V
	Test   []int // all beats
}

// Build synthesizes the full dataset. With Scale = 1 this takes a few
// seconds and ~40 MB; construction is deterministic in Config.Seed.
func Build(cfg Config) (*Dataset, error) {
	c := cfg.withDefaults()
	v := ecgsyn.DefaultVariability()
	if c.Var != nil {
		v = *c.Var
	}
	scale := func(n int) int {
		if c.Scale <= 0 || c.Scale >= 1 {
			return n
		}
		if n == 0 {
			return 0
		}
		s := int(float64(n)*c.Scale + 0.999999)
		if s < 1 {
			s = 1
		}
		return s
	}

	profiles := Inventory()
	master := rng.New(c.Seed)
	// Pre-derive one independent stream per record so parallel generation is
	// order-independent.
	seeds := make([]uint64, len(profiles))
	for i := range seeds {
		seeds[i] = master.Uint64()
	}

	type chunk struct {
		idx   int
		beats []Beat
	}
	chunks := make([][]Beat, len(profiles))
	var wg sync.WaitGroup
	sem := make(chan struct{}, c.Parallel)
	for i := range profiles {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			p := profiles[i]
			r := rng.New(seeds[i])
			subj := ecgsyn.NewSubject(r, v)
			// Interleave classes the way they appear in a recording (rather
			// than generating them in class blocks): build the class order
			// first, then synthesize in that order.
			nN, nL, nV := scale(p.N), scale(p.L), scale(p.V)
			order := make([]ecgsyn.Class, 0, nN+nL+nV)
			for b := 0; b < nN; b++ {
				order = append(order, ecgsyn.ClassN)
			}
			for b := 0; b < nL; b++ {
				order = append(order, ecgsyn.ClassL)
			}
			for b := 0; b < nV; b++ {
				order = append(order, ecgsyn.ClassV)
			}
			r.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			beats := make([]Beat, 0, len(order))
			for _, class := range order {
				w := subj.Beat(class, Before, After)
				s16 := make([]int16, len(w))
				for j, x := range w {
					s16[j] = int16(x)
				}
				beats = append(beats, Beat{Record: p.Name, Class: class, Samples: s16})
			}
			chunks[i] = beats
		}(i)
	}
	wg.Wait()

	ds := &Dataset{}
	for _, ch := range chunks {
		ds.Beats = append(ds.Beats, ch...)
	}
	ds.Test = make([]int, len(ds.Beats))
	for i := range ds.Test {
		ds.Test[i] = i
	}

	// Splits: deterministic class-stratified sampling without replacement.
	splitRng := rng.New(master.Uint64())
	byClass := [3][]int{}
	for i, b := range ds.Beats {
		byClass[b.Class] = append(byClass[b.Class], i)
	}
	for cl := range byClass {
		splitRng.Shuffle(len(byClass[cl]), func(a, b int) {
			byClass[cl][a], byClass[cl][b] = byClass[cl][b], byClass[cl][a]
		})
	}
	take := func(class ecgsyn.Class, n int) ([]int, error) {
		pool := byClass[class]
		if n > len(pool) {
			return nil, fmt.Errorf("beatset: need %d beats of class %v, have %d", n, class, len(pool))
		}
		out := pool[:n]
		byClass[class] = pool[n:]
		return out, nil
	}
	var err error
	appendTake := func(dst *[]int, class ecgsyn.Class, n int) {
		if err != nil {
			return
		}
		var idx []int
		idx, err = take(class, n)
		*dst = append(*dst, idx...)
	}
	appendTake(&ds.Train1, ecgsyn.ClassN, scale(Train1PerClass))
	appendTake(&ds.Train1, ecgsyn.ClassL, scale(Train1PerClass))
	appendTake(&ds.Train1, ecgsyn.ClassV, scale(Train1PerClass))
	appendTake(&ds.Train2, ecgsyn.ClassN, scale(Train2N))
	appendTake(&ds.Train2, ecgsyn.ClassL, scale(Train2L))
	appendTake(&ds.Train2, ecgsyn.ClassV, scale(Train2V))
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// CountByClass tallies the classes of the indexed beats.
func (ds *Dataset) CountByClass(indices []int) [3]int {
	var out [3]int
	for _, i := range indices {
		out[ds.Beats[i].Class]++
	}
	return out
}

// FloatWindow returns the beat's samples as float64 ADC counts, optionally
// downsampled by the given factor (1 = full rate). This is the input
// representation used for float training (counts, not millivolts, so that
// trained centers quantize directly to the integer pipeline).
func (ds *Dataset) FloatWindow(beat int, downsample int) []float64 {
	s := ds.Beats[beat].Samples
	if downsample <= 1 {
		out := make([]float64, len(s))
		for i, v := range s {
			out[i] = float64(v)
		}
		return out
	}
	out := make([]float64, 0, (len(s)+downsample-1)/downsample)
	for i := 0; i < len(s); i += downsample {
		out = append(out, float64(s[i]))
	}
	return out
}

// IntWindow returns the beat's samples as int32 ADC counts, optionally
// downsampled — the embedded pipeline's input.
func (ds *Dataset) IntWindow(beat int, downsample int) []int32 {
	s := ds.Beats[beat].Samples
	if downsample <= 1 {
		out := make([]int32, len(s))
		for i, v := range s {
			out[i] = int32(v)
		}
		return out
	}
	out := make([]int32, 0, (len(s)+downsample-1)/downsample)
	for i := 0; i < len(s); i += downsample {
		out = append(out, int32(s[i]))
	}
	return out
}

// Dim returns the input dimensionality at the given downsampling factor.
func (ds *Dataset) Dim(downsample int) int {
	n := Before + After
	if downsample <= 1 {
		return n
	}
	return (n + downsample - 1) / downsample
}

// Labels returns the class labels (as uint8, ecgsyn order) of the indexed
// beats.
func (ds *Dataset) Labels(indices []int) []uint8 {
	out := make([]uint8, len(indices))
	for i, idx := range indices {
		out[i] = uint8(ds.Beats[idx].Class)
	}
	return out
}

// Validate checks invariants (window sizes, class sanity, split overlap).
func (ds *Dataset) Validate() error {
	if len(ds.Beats) == 0 {
		return errors.New("beatset: empty dataset")
	}
	const want = Before + After
	for i, b := range ds.Beats {
		if len(b.Samples) != want {
			return fmt.Errorf("beatset: beat %d window %d, want %d", i, len(b.Samples), want)
		}
		if b.Class >= ecgsyn.NumClasses {
			return fmt.Errorf("beatset: beat %d class %d", i, b.Class)
		}
	}
	seen := make(map[int]bool, len(ds.Train1)+len(ds.Train2))
	for _, i := range ds.Train1 {
		if seen[i] {
			return errors.New("beatset: duplicate beat in train1")
		}
		seen[i] = true
	}
	for _, i := range ds.Train2 {
		if seen[i] {
			return errors.New("beatset: train1/train2 overlap")
		}
		seen[i] = true
	}
	return nil
}
