package wfdb

import (
	"fmt"
	"os"
	"path/filepath"
)

// Record bundles a multi-signal recording with its annotations, matching the
// triplet of files (.hea/.dat/.atr) that make up one database record.
type Record struct {
	Name         string
	Fs           float64
	Signals      [][]int32
	Gain         float64
	ADCZero      int32
	Descriptions []string
	Ann          []Ann
}

// Save writes rec to dir as name.hea, name.dat and (if annotated) name.atr.
func Save(dir string, rec *Record) error {
	if len(rec.Signals) == 0 {
		return fmt.Errorf("wfdb: record %q has no signals", rec.Name)
	}
	n := len(rec.Signals[0])
	h := Header{Record: rec.Name, Fs: rec.Fs, NumSamples: n}
	datName := rec.Name + ".dat"
	for i, s := range rec.Signals {
		desc := fmt.Sprintf("lead%d", i)
		if i < len(rec.Descriptions) && rec.Descriptions[i] != "" {
			desc = rec.Descriptions[i]
		}
		var init int32
		if len(s) > 0 {
			init = s[0]
		}
		h.Signals = append(h.Signals, SignalSpec{
			FileName:    datName,
			Format:      212,
			Gain:        rec.Gain,
			ADCRes:      11,
			ADCZero:     rec.ADCZero,
			InitValue:   init,
			Checksum:    SignalChecksum(s),
			Description: desc,
		})
	}
	if err := os.WriteFile(filepath.Join(dir, rec.Name+".hea"), []byte(FormatHeader(h)), 0o644); err != nil {
		return err
	}
	dat, err := Encode212(rec.Signals)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, datName), dat, 0o644); err != nil {
		return err
	}
	if len(rec.Ann) > 0 {
		atr, err := EncodeAnnotations(rec.Ann)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, rec.Name+".atr"), atr, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Load reads record `name` from dir. A missing annotation file is not an
// error (rec.Ann stays empty).
func Load(dir, name string) (*Record, error) {
	hf, err := os.Open(filepath.Join(dir, name+".hea"))
	if err != nil {
		return nil, err
	}
	defer hf.Close()
	h, err := ParseHeader(hf)
	if err != nil {
		return nil, fmt.Errorf("wfdb: %s.hea: %w", name, err)
	}
	if len(h.Signals) == 0 {
		return nil, fmt.Errorf("wfdb: %s.hea describes no signals", name)
	}
	for _, s := range h.Signals {
		if s.Format != 212 {
			return nil, fmt.Errorf("wfdb: unsupported format %d (only 212)", s.Format)
		}
		// Samples convert as (v - ADCZero) / Gain with v - ADCZero in
		// int32, which a zero near ±2³¹ wraps; a zero the format's 12-bit
		// samples cannot hold is a malformed header.
		if s.ADCZero < -2048 || s.ADCZero > 2047 {
			return nil, fmt.Errorf("wfdb: adc zero %d outside format 212's sample range [-2048, 2047]", s.ADCZero)
		}
		if s.FileName != h.Signals[0].FileName {
			return nil, fmt.Errorf("wfdb: multi-file records unsupported")
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, h.Signals[0].FileName))
	if err != nil {
		return nil, err
	}
	signals, err := Decode212(data, len(h.Signals), h.NumSamples)
	if err != nil {
		return nil, fmt.Errorf("wfdb: %s: %w", h.Signals[0].FileName, err)
	}
	rec := &Record{
		Name:    h.Record,
		Fs:      h.Fs,
		Signals: signals,
		Gain:    h.Signals[0].Gain,
		ADCZero: h.Signals[0].ADCZero,
	}
	for _, s := range h.Signals {
		rec.Descriptions = append(rec.Descriptions, s.Description)
	}
	// Verify checksums: catches corrupt or mis-decoded signal files early.
	for i, s := range h.Signals {
		if got := SignalChecksum(signals[i]); got != s.Checksum {
			return nil, fmt.Errorf("wfdb: %s signal %d checksum mismatch (got %d, header %d)",
				name, i, got, s.Checksum)
		}
	}
	if atr, err := os.ReadFile(filepath.Join(dir, name+".atr")); err == nil {
		anns, err := DecodeAnnotations(atr)
		if err != nil {
			return nil, fmt.Errorf("wfdb: %s.atr: %w", name, err)
		}
		rec.Ann = anns
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return rec, nil
}
