// Package lib is the deadcode fixture's internal package: two programs
// (dc/cmd/a and dc/cmd/b) reach some of it, tests reach the rest.
package lib

import (
	"io"
	"net/http"
)

// FromA is reached from cmd/a only.
func FromA() int { return helper() }

// FromB is reached from cmd/b only.
func FromB() int { return 2 }

// helper is unexported: unreached unexported code is staticcheck's, so the
// pass says nothing about it either way.
func helper() int { return 1 }

func unusedHelper() int { return 3 }

// Source is reached as a value; its Read is called only through io.Reader.
type Source struct{}

func (Source) Read(p []byte) (int, error) { return 0, io.EOF }

// Rewind matches no interface method, so a reached receiver does not keep it.
func (Source) Rewind() {} // want `no program reaches method lib\.Source\.Rewind`

// Handler's ServeHTTP is called only through http.Handler.
type Handler struct{}

func (Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {}

// Map is generic; cmd/b reaches it through an instantiation.
func Map[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

// Set is a generic type; cmd/b calls Has on a Set[int].
type Set[T comparable] struct{ m map[T]bool }

// NewSet builds an empty set.
func NewSet[T comparable]() *Set[T] { return &Set[T]{m: make(map[T]bool)} }

// Has is reached through the instantiated method Set[int].Has.
func (s *Set[T]) Has(x T) bool { return s.m[x] }

// Oracle is what a test compares the fast path against.
//
//rpvet:allow deadcode -- reference: TestFastMatchesOracle compares against it
func Oracle() int { return OracleTable[0] }

// OracleTable is reached only through the waived Oracle.
var OracleTable = []int{4}

// TestOnly is called only from lib_test.go.
func TestOnly() int { return 5 } // want `no program reaches func lib\.TestOnly`

// Unused is used by nothing.
const Unused = 6 // want `no program reaches const lib\.Unused`
