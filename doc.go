// Package rpbeat reproduces "A Methodology for Embedded Classification of
// Heartbeats Using Random Projections" (Braojos, Ansaloni, Atienza —
// DATE 2013) as a pure-stdlib Go library.
//
// The paper's contribution — a WBSN-ready heartbeat classifier built from
// Achlioptas random projections and a neuro-fuzzy classifier, trained with a
// genetic algorithm over projections and scaled conjugate gradient over
// membership functions, then quantized to an integer-only pipeline — lives
// in internal/core. Every substrate it relies on is implemented here too:
// see DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
//
// The benchmarks in bench_test.go regenerate each experiment at a reduced
// scale; cmd/rpbench regenerates them at full scale. Performance is
// measured by the end-to-end benchmark in benchmark/ and the go test -bench
// families, as BENCHMARKS.md describes. The memory/speed trade between the
// three projection-matrix layouts (dense int8, 2-bit packed, sparse index
// lists) is laid out in DESIGN.md's "kernel memory layouts" section.
package rpbeat
