package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"rpbeat/internal/bitemb"
	"rpbeat/internal/nfc"
	"rpbeat/internal/rp"
)

// modelJSON is the on-disk JSON form of a trained model. The projection is
// stored as a flat row-major array of -1/0/+1 values.
type modelJSON struct {
	Format     string    `json:"format"`
	K          int       `json:"k"`
	D          int       `json:"d"`
	Downsample int       `json:"downsample"`
	AlphaTrain float64   `json:"alpha_train"`
	MinARR     float64   `json:"min_arr"`
	P          []int8    `json:"projection"`
	Centers    []float64 `json:"centers"`
	Sigmas     []float64 `json:"sigmas"`
}

const jsonFormat = "rpbeat-model-v1"

// bitembJSON is the on-disk JSON form of a binary-embedding model. Prototype
// words are 16-digit hex strings: JSON numbers are float64 and cannot carry
// a uint64 exactly.
type bitembJSON struct {
	Format     string                   `json:"format"`
	K          int                      `json:"k"`
	D          int                      `json:"d"`
	Downsample int                      `json:"downsample"`
	AlphaTrain float64                  `json:"alpha_train"`
	MinARR     float64                  `json:"min_arr"`
	P          []int8                   `json:"projection"`
	Thresholds []int32                  `json:"thresholds"`
	Protos     [nfc.NumClasses][]string `json:"protos"`
	Radii      [nfc.NumClasses]uint16   `json:"radii"`
}

const jsonFormatBitemb = "rpbeat-bitemb-v1"

// MarshalJSON implements json.Marshaler for Model, dispatching on the head
// kind.
func (m *Model) MarshalJSON() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.Kind == KindBitemb {
		j := bitembJSON{
			Format:     jsonFormatBitemb,
			K:          m.K,
			D:          m.D,
			Downsample: m.Downsample,
			AlphaTrain: m.AlphaTrain,
			MinARR:     m.MinARR,
			P:          m.P.El,
			Thresholds: m.Bit.Thresholds,
			Radii:      m.Bit.Radii,
		}
		for l := range j.Protos {
			j.Protos[l] = make([]string, len(m.Bit.Protos[l]))
			for w, v := range m.Bit.Protos[l] {
				j.Protos[l][w] = fmt.Sprintf("%016x", v)
			}
		}
		return json.Marshal(j)
	}
	return json.Marshal(modelJSON{
		Format:     jsonFormat,
		K:          m.K,
		D:          m.D,
		Downsample: m.Downsample,
		AlphaTrain: m.AlphaTrain,
		MinARR:     m.MinARR,
		P:          m.P.El,
		Centers:    m.MF.C,
		Sigmas:     m.MF.Sigma,
	})
}

// UnmarshalJSON implements json.Unmarshaler for Model. The format field
// routes to the head-specific layout.
func (m *Model) UnmarshalJSON(data []byte) error {
	var probe struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return err
	}
	switch probe.Format {
	case jsonFormat:
		var j modelJSON
		if err := json.Unmarshal(data, &j); err != nil {
			return err
		}
		*m = Model{
			Kind: KindFuzzy, K: j.K, D: j.D, Downsample: j.Downsample,
			AlphaTrain: j.AlphaTrain, MinARR: j.MinARR,
			P:  &rp.Matrix{K: j.K, D: j.D, El: j.P},
			MF: &nfc.Params{K: j.K, C: j.Centers, Sigma: j.Sigmas},
		}
	case jsonFormatBitemb:
		var j bitembJSON
		if err := json.Unmarshal(data, &j); err != nil {
			return err
		}
		bp := &bitemb.Params{K: j.K, Thresholds: j.Thresholds, Radii: j.Radii}
		for l := range j.Protos {
			bp.Protos[l] = make([]uint64, len(j.Protos[l]))
			for w, s := range j.Protos[l] {
				v, err := strconv.ParseUint(s, 16, 64)
				if err != nil {
					return fmt.Errorf("core: bad prototype word %q: %w", s, err)
				}
				bp.Protos[l][w] = v
			}
		}
		*m = Model{
			Kind: KindBitemb, K: j.K, D: j.D, Downsample: j.Downsample,
			AlphaTrain: j.AlphaTrain, MinARR: j.MinARR,
			P:   &rp.Matrix{K: j.K, D: j.D, El: j.P},
			Bit: bp,
		}
	default:
		return fmt.Errorf("core: unknown model format %q", probe.Format)
	}
	return m.Validate()
}

// Binary model format, version 1 (fuzzy head):
//
//	magic   [4]byte "RPBT"
//	version uint16 (1)
//	k, d, downsample uint16
//	alphaTrain, minARR float64
//	packed projection: ceil(k*d/4) bytes (2-bit codes, rp.Pack layout)
//	centers, sigmas: k*3 float64 each
//
// Version 2 (binary embedding head) inserts a kind discriminator after the
// version and replaces the membership tables with the binary head:
//
//	magic   [4]byte "RPBT"
//	version uint16 (2)
//	kind    uint16 (1 = bitemb)
//	k, d, downsample uint16
//	alphaTrain, minARR float64
//	packed projection: ceil(k*d/4) bytes
//	thresholds: k int32
//	prototypes: 3 × Words(k) uint64
//	radii: 3 uint16
//
// Fuzzy models keep writing version 1 byte-for-byte — their digests are
// provenance keys the catalog and gateway fan-out verify, so the v1 encoding
// is frozen. All integers little-endian. The binary form is what a
// deployment tool would flash to the node (the packed matrix bytes are the
// exact ROM image).
var binMagic = [4]byte{'R', 'P', 'B', 'T'}

const (
	binVersion       = 1 // fuzzy head
	binVersionBitemb = 2 // bitemb head, with kind discriminator
)

// WriteBinary serializes the model in the compact binary format.
func (m *Model) WriteBinary(w io.Writer) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if m.K > math.MaxUint16 || m.D > math.MaxUint16 || m.Downsample > math.MaxUint16 {
		return errors.New("core: dimensions exceed binary format range")
	}
	var buf bytes.Buffer
	buf.Write(binMagic[:])
	le := binary.LittleEndian
	var u16 [2]byte
	put16 := func(v uint16) {
		le.PutUint16(u16[:], v)
		buf.Write(u16[:])
	}
	if m.Kind == KindBitemb {
		put16(binVersionBitemb)
		put16(uint16(KindBitemb))
	} else {
		put16(binVersion)
	}
	put16(uint16(m.K))
	put16(uint16(m.D))
	put16(uint16(m.Downsample))
	var u64 [8]byte
	put64 := func(v uint64) {
		le.PutUint64(u64[:], v)
		buf.Write(u64[:])
	}
	putF := func(v float64) { put64(math.Float64bits(v)) }
	putF(m.AlphaTrain)
	putF(m.MinARR)
	buf.Write(rp.Pack(m.P).Bits)
	switch m.Kind {
	case KindFuzzy:
		for _, v := range m.MF.C {
			putF(v)
		}
		for _, v := range m.MF.Sigma {
			putF(v)
		}
	case KindBitemb:
		var u32 [4]byte
		for _, t := range m.Bit.Thresholds {
			le.PutUint32(u32[:], uint32(t))
			buf.Write(u32[:])
		}
		for l := 0; l < nfc.NumClasses; l++ {
			for _, v := range m.Bit.Protos[l] {
				put64(v)
			}
		}
		for _, r := range m.Bit.Radii {
			put16(r)
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// MaxModelBytes bounds any serialized model this package will read: larger
// inputs are rejected before buffering, not after. The largest legitimate
// model (k=d=MaxDim) is well under it.
const MaxModelBytes = 16 << 20

// MaxDim bounds each header dimension (k, d) of a model read from untrusted
// bytes. The paper's deployed points are k≈8, d≤200; the cap leaves three
// orders of magnitude of headroom while keeping the worst-case decode
// allocation (the k*d unpacked matrix) a few MB instead of the ~4 GB a
// corrupt uint16 pair could otherwise demand.
const MaxDim = 1 << 12

// ReadBinary deserializes a model written by WriteBinary. Input is
// untrusted: the reader is capped at MaxModelBytes and header dimensions
// are bounds-checked before any size derived from them is allocated.
func ReadBinary(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(io.LimitReader(r, MaxModelBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > MaxModelBytes {
		return nil, fmt.Errorf("core: binary model exceeds %d bytes", MaxModelBytes)
	}
	if !bytes.HasPrefix(data, binMagic[:]) {
		return nil, errors.New("core: bad magic (not an rpbeat model)")
	}
	le := binary.LittleEndian
	off := 4
	get16 := func() int {
		v := int(le.Uint16(data[off:]))
		off += 2
		return v
	}
	getF := func() float64 {
		v := math.Float64frombits(le.Uint64(data[off:]))
		off += 8
		return v
	}
	if len(data) < off+2 {
		return nil, errors.New("core: binary model truncated")
	}
	version := get16()
	var kind Kind
	var header int
	switch version {
	case binVersion:
		kind = KindFuzzy
		header = off + 3*2 + 2*8
	case binVersionBitemb:
		if len(data) < off+2 {
			return nil, errors.New("core: binary model truncated")
		}
		if kd := get16(); kd != int(KindBitemb) {
			return nil, fmt.Errorf("core: unknown model kind %d in binary v2", kd)
		}
		kind = KindBitemb
		header = off + 3*2 + 2*8
	default:
		return nil, fmt.Errorf("core: unsupported binary version %d", version)
	}
	if len(data) < header {
		return nil, errors.New("core: binary model truncated")
	}
	k, d, down := get16(), get16(), get16()
	if k == 0 || d == 0 {
		return nil, errors.New("core: zero dimensions in binary model")
	}
	if k > MaxDim || d > MaxDim {
		return nil, fmt.Errorf("core: implausible model dimensions %dx%d (max %d)", k, d, MaxDim)
	}
	alphaTrain := getF()
	minARR := getF()
	packedLen := (k*d + 3) / 4

	// Bound the full body length *before* allocating anything sized by the
	// header: a corrupt header fails here, not in make().
	var body int
	if kind == KindFuzzy {
		body = packedLen + 2*k*nfc.NumClasses*8
	} else {
		body = packedLen + 4*k + 8*nfc.NumClasses*bitemb.Words(k) + 2*nfc.NumClasses
	}
	if need := off + body; len(data) < need {
		return nil, fmt.Errorf("core: binary model truncated (%d bytes, need %d)", len(data), need)
	}
	packed := &rp.PackedMatrix{K: k, D: d, Bits: data[off : off+packedLen]}
	off += packedLen
	P, err := packed.Unpack()
	if err != nil {
		return nil, err
	}
	m := &Model{Kind: kind, K: k, D: d, Downsample: down, P: P, AlphaTrain: alphaTrain, MinARR: minARR}
	switch kind {
	case KindFuzzy:
		mf := nfc.NewParams(k)
		for i := range mf.C {
			mf.C[i] = getF()
		}
		for i := range mf.Sigma {
			mf.Sigma[i] = getF()
		}
		m.MF = mf
	case KindBitemb:
		bp := &bitemb.Params{K: k, Thresholds: make([]int32, k)}
		for i := range bp.Thresholds {
			bp.Thresholds[i] = int32(le.Uint32(data[off:]))
			off += 4
		}
		w := bitemb.Words(k)
		for l := 0; l < nfc.NumClasses; l++ {
			bp.Protos[l] = make([]uint64, w)
			for j := range bp.Protos[l] {
				bp.Protos[l][j] = le.Uint64(data[off:])
				off += 8
			}
		}
		for l := range bp.Radii {
			bp.Radii[l] = uint16(get16())
		}
		m.Bit = bp
	}
	return m, m.Validate()
}

// Digest returns the lowercase-hex SHA-256 of the model's binary codec form.
// The binary form is canonical (fixed field order, little-endian, packed
// matrix bytes), so the digest identifies the model's exact parameters
// regardless of which encoding (JSON or binary) it traveled in — the
// provenance key the model catalog versions by.
//
//rpvet:allow deadcode -- reference: catalog.NewManifest hashes the same bytes; TestFuzzyDigestStable, TestModelLifecycleEndToEnd and TestBitembUploadAndPinnedStream compare against it
func (m *Model) Digest() (string, error) {
	h := sha256.New()
	if err := m.WriteBinary(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Decode parses a serialized model in either supported encoding, sniffed by
// the binary magic. It is the single entry point for model bytes of unknown
// provenance (file loads, HTTP uploads) and applies the same bounds as
// ReadBinary.
func Decode(data []byte) (*Model, error) {
	if len(data) > MaxModelBytes {
		return nil, fmt.Errorf("core: model exceeds %d bytes", MaxModelBytes)
	}
	if bytes.HasPrefix(data, binMagic[:]) {
		return ReadBinary(bytes.NewReader(data))
	}
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("core: model is neither binary (no %q magic) nor valid JSON: %w", string(binMagic[:]), err)
	}
	if m.K > MaxDim || m.D > MaxDim {
		return nil, fmt.Errorf("core: implausible model dimensions %dx%d (max %d)", m.K, m.D, MaxDim)
	}
	return &m, nil
}
