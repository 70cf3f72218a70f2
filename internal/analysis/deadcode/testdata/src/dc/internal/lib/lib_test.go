package lib

import "testing"

// A test is not a program: this use does not reach TestOnly.
func TestTestOnly(t *testing.T) {
	if TestOnly() != 5 || Oracle() != 4 {
		t.Fatal("fixture")
	}
}
