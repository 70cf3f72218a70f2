// Fixtures for a sink called across the tiers: the gateway renders its
// refusals through the serving tier's WriteErr, whose body this package
// cannot see, and its call sites are checked all the same.
package gate

import (
	"errors"
	"fmt"
	"io"

	"rpbeat/internal/apierr"
	"rpbeat/internal/serve"
)

func relayRaw(w io.Writer, url string) {
	serve.WriteErr(w, fmt.Errorf("backend %s unreachable", url)) // want `raw fmt\.Errorf error reaches wire sink WriteErr`
}

func relayRawVar(w io.Writer) {
	err := errors.New("no backend")
	serve.WriteErr(w, err) // want `raw errors\.New error reaches wire sink WriteErr`
}

func relayTyped(w io.Writer) {
	serve.WriteErr(w, apierr.New("server_overloaded", "no routable backend")) // typed: clean
}

// refuse forwards its parameter to the other tier's sink, so it is a sink
// of this tier.
func refuse(w io.Writer, err error) {
	serve.WriteErr(w, err)
}

func relayThroughRefuse(w io.Writer) {
	refuse(w, errors.New("draining")) // want `raw errors\.New error reaches wire sink refuse`
}
