//go:build !race

package sigdsp

const raceEnabled = false
