// Package wfdb reads and writes physiologic signal records in the MIT-BIH
// (WFDB) on-disk format: text headers (.hea), format-212 packed signal files
// (.dat) and MIT-format annotation files (.atr).
//
// The synthetic database generated by this repository round-trips through
// this codec so that every experiment consumes data in the same format the
// paper's tooling reads from PhysioBank. The implementation follows the
// public WFDB specification:
//
//   - format 212 packs two 12-bit two's-complement samples into 3 bytes;
//   - annotations are 16-bit little-endian words holding a 6-bit type code
//     and a 10-bit time increment, with SKIP/NUM/SUB/CHN/AUX pseudo-codes.
package wfdb

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Annotation type codes used by this repository (subset of ECG beat codes
// from the WFDB annotation code table).
const (
	CodeNormal byte = 1 // N: normal beat
	CodeLBBB   byte = 2 // L: left bundle branch block beat
	CodePVC    byte = 5 // V: premature ventricular contraction

	// Pseudo-annotation codes (never returned as beats).
	codeSkip byte = 59
	codeNum  byte = 60
	codeSub  byte = 61
	codeChan byte = 62
	codeAux  byte = 63
)

// Ann is one annotation: a type code attached to a sample index.
type Ann struct {
	Sample int
	Code   byte
	Sub    byte
	Chan   byte
	Num    byte
	Aux    string
}

// SignalSpec describes one signal of a header.
type SignalSpec struct {
	FileName    string
	Format      int
	Gain        float64 // ADC units per physical unit (mV)
	ADCRes      int     // bits
	ADCZero     int32
	InitValue   int32
	Checksum    int16
	Description string
}

// Header is the parsed content of a .hea file.
type Header struct {
	Record     string
	Fs         float64
	NumSamples int
	Signals    []SignalSpec
}

// --- header ---

// FormatHeader renders h in .hea syntax.
func FormatHeader(h Header) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d %g %d\n", h.Record, len(h.Signals), h.Fs, h.NumSamples)
	for _, s := range h.Signals {
		fmt.Fprintf(&b, "%s %d %g %d %d %d %d 0 %s\n",
			s.FileName, s.Format, s.Gain, s.ADCRes, s.ADCZero,
			s.InitValue, s.Checksum, s.Description)
	}
	return b.String()
}

// ParseHeader parses a .hea file.
func ParseHeader(r io.Reader) (Header, error) {
	var h Header
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if line == 0 {
			if len(fields) < 4 {
				return h, fmt.Errorf("wfdb: malformed record line %q", text)
			}
			h.Record = fields[0]
			nsig, err := strconv.Atoi(fields[1])
			if err != nil {
				return h, fmt.Errorf("wfdb: bad signal count: %v", err)
			}
			h.Fs, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return h, fmt.Errorf("wfdb: bad sampling frequency: %v", err)
			}
			h.NumSamples, err = strconv.Atoi(fields[3])
			if err != nil {
				return h, fmt.Errorf("wfdb: bad sample count: %v", err)
			}
			h.Signals = make([]SignalSpec, 0, nsig)
			line++
			continue
		}
		if len(fields) < 7 {
			return h, fmt.Errorf("wfdb: malformed signal line %q", text)
		}
		var s SignalSpec
		s.FileName = fields[0]
		var err error
		if s.Format, err = strconv.Atoi(strings.SplitN(fields[1], "x", 2)[0]); err != nil {
			return h, fmt.Errorf("wfdb: bad format: %v", err)
		}
		if s.Gain, err = strconv.ParseFloat(strings.SplitN(fields[2], "(", 2)[0], 64); err != nil {
			return h, fmt.Errorf("wfdb: bad gain: %v", err)
		}
		// Samples convert as (v - ADCZero) / Gain: a gain of 0, NaN or ±Inf
		// would give the front end NaN, outside its domain.
		if !(s.Gain > 0) || math.IsInf(s.Gain, 1) {
			return h, fmt.Errorf("wfdb: bad gain %v: want a finite gain above 0", s.Gain)
		}
		if s.ADCRes, err = strconv.Atoi(fields[3]); err != nil {
			return h, fmt.Errorf("wfdb: bad adc resolution: %v", err)
		}
		// A zero past int32 is refused here, not truncated; Load bounds it
		// further to the format's sample range.
		z, err := strconv.ParseInt(fields[4], 10, 32)
		if err != nil {
			return h, fmt.Errorf("wfdb: bad adc zero: %v", err)
		}
		s.ADCZero = int32(z)
		iv, err := strconv.Atoi(fields[5])
		if err != nil {
			return h, fmt.Errorf("wfdb: bad initial value: %v", err)
		}
		s.InitValue = int32(iv)
		cs, err := strconv.Atoi(fields[6])
		if err != nil {
			return h, fmt.Errorf("wfdb: bad checksum: %v", err)
		}
		s.Checksum = int16(cs)
		if len(fields) >= 9 {
			s.Description = strings.Join(fields[8:], " ")
		}
		h.Signals = append(h.Signals, s)
		line++
	}
	if err := sc.Err(); err != nil {
		return h, err
	}
	if line == 0 {
		return h, errors.New("wfdb: empty header")
	}
	return h, nil
}

// --- format 212 ---

// Encode212 packs the per-signal sample slices (all the same length) into
// format-212 bytes. Samples are interleaved frame by frame, then packed in
// pairs: 3 bytes hold two 12-bit two's-complement values. An odd total sample
// count is padded with one zero sample, as the reference implementation does.
func Encode212(signals [][]int32) ([]byte, error) {
	if len(signals) == 0 {
		return nil, errors.New("wfdb: no signals")
	}
	n := len(signals[0])
	for i, s := range signals {
		if len(s) != n {
			return nil, fmt.Errorf("wfdb: signal %d length %d != %d", i, len(s), n)
		}
	}
	total := n * len(signals)
	flat := make([]int32, 0, total+1)
	for i := 0; i < n; i++ {
		for _, s := range signals {
			v := s[i]
			if v < -2048 || v > 2047 {
				return nil, fmt.Errorf("wfdb: sample %d out of 12-bit range", v)
			}
			flat = append(flat, v)
		}
	}
	if len(flat)%2 == 1 {
		flat = append(flat, 0)
	}
	out := make([]byte, 0, len(flat)/2*3)
	for i := 0; i < len(flat); i += 2 {
		a := uint32(flat[i]) & 0xfff
		b := uint32(flat[i+1]) & 0xfff
		out = append(out,
			byte(a&0xff),
			byte((a>>8)&0x0f)|byte((b>>8)&0x0f)<<4,
			byte(b&0xff))
	}
	return out, nil
}

// Decode212 unpacks format-212 bytes into nsig signals of nsamp samples each.
func Decode212(data []byte, nsig, nsamp int) ([][]int32, error) {
	if nsig <= 0 {
		return nil, errors.New("wfdb: nsig must be positive")
	}
	total := nsig * nsamp
	pairs := (total + 1) / 2
	if len(data) < pairs*3 {
		return nil, fmt.Errorf("wfdb: need %d bytes for %d samples, have %d", pairs*3, total, len(data))
	}
	flat := make([]int32, 0, pairs*2)
	for i := 0; i < pairs*3; i += 3 {
		a := uint32(data[i]) | uint32(data[i+1]&0x0f)<<8
		b := uint32(data[i+2]) | uint32(data[i+1]&0xf0)<<4
		flat = append(flat, sext12(a), sext12(b))
	}
	out := make([][]int32, nsig)
	for s := range out {
		out[s] = make([]int32, nsamp)
	}
	for i := 0; i < total; i++ {
		out[i%nsig][i/nsig] = flat[i]
	}
	return out, nil
}

// sext12 sign-extends a 12-bit value.
func sext12(v uint32) int32 {
	if v&0x800 != 0 {
		return int32(v) - 4096
	}
	return int32(v)
}

// SignalChecksum computes the 16-bit sample-sum checksum stored in headers.
func SignalChecksum(samples []int32) int16 {
	var sum int16
	for _, v := range samples {
		sum += int16(v)
	}
	return sum
}
