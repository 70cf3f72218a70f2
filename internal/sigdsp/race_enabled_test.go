//go:build race

package sigdsp

// raceEnabled reports whether this test binary carries race instrumentation.
// Timing-ratio assertions (TestNoiseStagesDataIndependent) skip under it:
// the instrumentation's per-access cost swamps the selects being timed.
const raceEnabled = true
