// Package testutil carries helpers shared by the package test suites.
//
// AssertZeroAlloc is the runtime half of the repo's allocation invariant:
// cmd/rpvet's allocfree analyzer statically proves a //rpbeat:allocfree
// function contains no allocation *sources*, and these helpers prove at
// runtime that escape analysis actually kept the hot path on the stack.
// Both layers name the same invariant set — a function annotated
// //rpbeat:allocfree should have an AssertZeroAlloc test, and vice versa.
package testutil

import "testing"

// AssertZeroAlloc fails the test if f allocates. name labels the measured
// operation in the failure message.
//
//rpvet:allow deadcode -- test harness: the zero-allocation tests of wire, serve, pipeline, gate and bitemb
func AssertZeroAlloc(t *testing.T, name string, f func()) {
	t.Helper()
	AssertZeroAllocN(t, name, 100, f)
}

// AssertZeroAllocN is AssertZeroAlloc with a caller-chosen number of
// measurement rounds, for operations expensive enough that the default 100
// would dominate the suite's runtime.
//
// The measurement is retried a few times before failing: paths that hand
// work to a goroutine (engine workers draining chunks) are measured
// globally by testing.AllocsPerRun, and a warm-up racing the first round
// can charge one-time growth to it.
//
//rpvet:allow deadcode -- test harness: the zero-allocation tests of gate, load, pipeline, serve and sigdsp
func AssertZeroAllocN(t *testing.T, name string, runs int, f func()) {
	t.Helper()
	var allocs float64
	for attempt := 0; attempt < 3; attempt++ {
		allocs = testing.AllocsPerRun(runs, f)
		if allocs == 0 {
			return
		}
	}
	t.Fatalf("%s allocates %.1f times per run, want 0", name, allocs)
}

// AssertAllocsAtMost bounds f's allocations per run for paths with a
// documented nonzero floor (e.g. sort.Slice boxing its less closure).
//
//rpvet:allow deadcode -- test harness: TestDetectIntoSteadyStateAllocs and the pipeline allocation tests
func AssertAllocsAtMost(t *testing.T, name string, max float64, runs int, f func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(runs, f); allocs > max {
		t.Fatalf("%s allocates %.1f times per run, want <= %.1f", name, allocs, max)
	}
}
