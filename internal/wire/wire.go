// Package wire is the serving layer's codec toolbox: the request/response
// encodings of the two data endpoints, built so the HTTP surface costs what
// the pipeline behind it costs — nothing per request once warm.
//
// Three codecs live here:
//
//   - A hand-rolled JSON parser for the two request shapes the data paths
//     accept — {"samples":[...]} chunk lines on /v1/stream and
//     {"model":"...","samples":[...]} bodies on /v1/classify. ParseChunk and
//     ParseClassify scan bytes directly and append the decoded samples into
//     a caller-provided slice: no encoding/json, no reflection, no float64
//     round-trip, zero allocations on a warm buffer. The parser accepts a
//     subset of what encoding/json accepts (nesting depth is bounded), and
//     on everything it accepts it agrees with encoding/json byte for byte —
//     the fuzz suite holds it to "success implies stdlib success with
//     identical output", so no input can mean two different things on the
//     fast and the slow path.
//
//   - Append-style response encoders (AppendStreamBeat, AppendStreamDone,
//     AppendError, AppendClassifyResponse) that build the exact bytes
//     encoding/json would emit for the serving layer's response types —
//     HTML escaping, � coercion, sorted count keys, trailing newline —
//     into a recycled buffer, one Write per line.
//
//   - A binary sample transport (Content-Type application/x-rpbeat-samples)
//     for the uplink, where bandwidth is the WBSN budget JSON wastes:
//     framed little-endian sample chunks with an int8-delta mode that cuts
//     a 30 s record to ~1/5 of its decimal-JSON size. See frame.go for the
//     layout; DecodeFrame bounds every length before allocating, mirroring
//     the core codec's MaxModelBytes hardening.
//
// UplinkReader is the one reader of the /v1/stream request body, in either
// encoding: it splits the body into units (frames bounded by
// MaxFrameSamples, chunk lines by MaxLineBytes) and hands back each unit's
// verbatim bytes with its decoded samples. internal/serve classifies the
// samples and the gateway journals the bytes, so the two tiers cannot
// disagree on framing.
//
// The package deliberately knows nothing about HTTP: internal/serve owns
// content negotiation and maps the typed errors (SyntaxError, FrameError,
// ErrFrameTooLarge, ErrLineTooLong) onto the apierr contract.
package wire

// The content types the serving layer negotiates with. Requests declare
// the binary transport with ContentTypeSamples; everything else on the data
// paths is parsed as JSON/NDJSON.
const (
	ContentTypeJSON    = "application/json"
	ContentTypeNDJSON  = "application/x-ndjson"
	ContentTypeSamples = "application/x-rpbeat-samples"
)

// ResumeFromHeader is the /v1/stream resume handshake: its value is the
// absolute sample index the request body starts at. A gateway replaying its
// failover journal sets it so the backend phase-aligns a resumed pipeline
// with the interrupted one and reports absolute beat indices.
const ResumeFromHeader = "X-Rpbeat-Resume-From"

// IsSampleContentType reports whether a request Content-Type selects the
// binary sample transport. Media-type parameters (";charset=..." and
// friends) are ignored, and matching is case-insensitive, as RFC 9110
// defines media types.
func IsSampleContentType(ct string) bool {
	for i := 0; i < len(ct); i++ {
		if ct[i] == ';' {
			ct = ct[:i]
			break
		}
	}
	for len(ct) > 0 && (ct[0] == ' ' || ct[0] == '\t') {
		ct = ct[1:]
	}
	for len(ct) > 0 && (ct[len(ct)-1] == ' ' || ct[len(ct)-1] == '\t') {
		ct = ct[:len(ct)-1]
	}
	if len(ct) != len(ContentTypeSamples) {
		return false
	}
	for i := 0; i < len(ct); i++ {
		c := ct[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != ContentTypeSamples[i] {
			return false
		}
	}
	return true
}
