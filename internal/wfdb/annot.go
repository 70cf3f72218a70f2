package wfdb

import (
	"errors"
	"fmt"
)

// EncodeAnnotations renders annotations (sorted by sample index) in the MIT
// annotation format. Each annotation becomes a 16-bit little-endian word:
// the top 6 bits are the type code, the bottom 10 bits the time increment
// from the previous annotation. Increments that do not fit in 10 bits are
// carried by a SKIP pseudo-annotation followed by a 32-bit interval in
// PDP-11 byte order (high word first, each word little-endian). The stream
// ends with a zero word.
func EncodeAnnotations(anns []Ann) ([]byte, error) {
	var out []byte
	word := func(code byte, t int) {
		w := uint16(code&0x3f)<<10 | uint16(t&0x3ff)
		out = append(out, byte(w&0xff), byte(w>>8))
	}
	prev := 0
	for i, a := range anns {
		if a.Sample < prev {
			return nil, fmt.Errorf("wfdb: annotation %d not sorted (sample %d < %d)", i, a.Sample, prev)
		}
		if a.Code == 0 || a.Code >= codeSkip {
			return nil, fmt.Errorf("wfdb: annotation %d has reserved code %d", i, a.Code)
		}
		delta := a.Sample - prev
		if delta > 1023 {
			word(codeSkip, 0)
			d := uint32(delta)
			// PDP-11 order: high 16 bits first, each halfword little-endian.
			out = append(out,
				byte(d>>16), byte(d>>24),
				byte(d), byte(d>>8))
			delta = 0
		}
		word(a.Code, delta)
		if a.Sub != 0 {
			word(codeSub, int(a.Sub))
		}
		if a.Chan != 0 {
			word(codeChan, int(a.Chan))
		}
		if a.Num != 0 {
			word(codeNum, int(a.Num))
		}
		if a.Aux != "" {
			if len(a.Aux) > 255 {
				return nil, fmt.Errorf("wfdb: annotation %d aux too long", i)
			}
			word(codeAux, len(a.Aux))
			out = append(out, []byte(a.Aux)...)
			if len(a.Aux)%2 == 1 {
				out = append(out, 0) // pad to word boundary
			}
		}
		prev = a.Sample
	}
	out = append(out, 0, 0) // EOF word
	return out, nil
}

// DecodeAnnotations parses a MIT-format annotation stream.
func DecodeAnnotations(data []byte) ([]Ann, error) {
	var anns []Ann
	t := 0
	i := 0
	pendingSkip := 0
	for {
		if i+2 > len(data) {
			return nil, errors.New("wfdb: unterminated annotation stream")
		}
		w := uint16(data[i]) | uint16(data[i+1])<<8
		i += 2
		code := byte(w >> 10)
		field := int(w & 0x3ff)
		if w == 0 {
			return anns, nil // EOF
		}
		switch code {
		case codeSkip:
			if i+4 > len(data) {
				return nil, errors.New("wfdb: truncated SKIP interval")
			}
			d := uint32(data[i])<<16 | uint32(data[i+1])<<24 |
				uint32(data[i+2]) | uint32(data[i+3])<<8
			i += 4
			pendingSkip += int(int32(d))
		case codeSub:
			if len(anns) == 0 {
				return nil, errors.New("wfdb: SUB before any annotation")
			}
			anns[len(anns)-1].Sub = byte(field)
		case codeChan:
			if len(anns) == 0 {
				return nil, errors.New("wfdb: CHN before any annotation")
			}
			anns[len(anns)-1].Chan = byte(field)
		case codeNum:
			if len(anns) == 0 {
				return nil, errors.New("wfdb: NUM before any annotation")
			}
			anns[len(anns)-1].Num = byte(field)
		case codeAux:
			if i+field > len(data) {
				return nil, errors.New("wfdb: truncated AUX string")
			}
			if len(anns) == 0 {
				return nil, errors.New("wfdb: AUX before any annotation")
			}
			anns[len(anns)-1].Aux = string(data[i : i+field])
			i += field
			if field%2 == 1 {
				i++ // padding byte
			}
		default:
			t += pendingSkip + field
			pendingSkip = 0
			anns = append(anns, Ann{Sample: t, Code: code})
		}
	}
}
