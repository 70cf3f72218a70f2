// Fixtures for the apierrcheck analyzer: WriteErr is a direct sink (its
// error parameter flows into apierr.From), streamErr/abort are the closure
// and transitive-closure shapes from the real stream handler.
package serve

import (
	"errors"
	"fmt"
	"io"

	"rpbeat/internal/apierr"
)

func WriteErr(w io.Writer, err error) {
	ae := apierr.From(err)
	w.Write([]byte(ae.Message))
}

func handleRawErrorf(w io.Writer, path string) {
	WriteErr(w, fmt.Errorf("no handler for %s", path)) // want `raw fmt\.Errorf error reaches wire sink WriteErr`
}

func handleRawNewVar(w io.Writer) {
	err := errors.New("nope")
	WriteErr(w, err) // want `raw errors\.New error reaches wire sink WriteErr`
}

func handleTyped(w io.Writer) {
	WriteErr(w, apierr.New("bad_input", "bad payload")) // typed: clean
}

func handleUnknownProvenance(w io.Writer, err error) {
	WriteErr(w, err) // caller-supplied: provenance unknown, not flagged
}

func handleStream(w io.Writer) {
	streamErr := func(err error) {
		ae := apierr.From(err)
		w.Write([]byte(ae.Message))
	}
	abort := func(err error) {
		streamErr(err)
	}
	streamErr(errors.New("torn line"))  // want `raw errors\.New error reaches wire sink streamErr`
	abort(fmt.Errorf("backend lost"))   // want `raw fmt\.Errorf error reaches wire sink abort`
	abort(apierr.New("internal", "x"))  // typed through the transitive sink: clean
	streamErr(coerce(io.ErrClosedPipe)) // coerced elsewhere: clean
}

func coerce(err error) error {
	return apierr.New("internal", err.Error())
}
