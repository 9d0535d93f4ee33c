// Package jsonl frames the strict JSONL streams tilgc reads back (GC
// traces, SLO reports, advisor profile stores): one JSON object per line,
// a "t" field naming the record type, and exactly one versioned header
// record before any other record. Each reader supplies its own record
// decoding; the framing, its checks and its line-numbered errors live
// here once.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Format describes one stream format.
type Format struct {
	// Prefix starts every line-numbered error, e.g. "trace: line".
	Prefix string
	// Empty is the error text for a stream with no header record.
	Empty string
	// Header is the header record's type; Schema is the schema version
	// this build reads.
	Header string
	Schema int
	// Group is the record type that opens a group (a run, a profile), and
	// Key the field in which every non-header record names its group's
	// index. Groups must arrive in index order, and every other record
	// must name the group open at that point.
	Group, Key string
}

// Line is one non-blank record of a stream.
type Line struct {
	// Type is the record's "t" field.
	Type string
	raw  []byte
}

// Decode decodes the record into v, rejecting unknown fields.
func (l Line) Decode(v any) error {
	dec := json.NewDecoder(bytes.NewReader(l.raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Read reads a stream in format f. header decodes the header record and
// returns its schema version, which must equal f.Schema; rec handles
// every later record once its group is checked. Blank lines are skipped,
// lines may be up to 16 MiB, and every error but a read error is
// returned prefixed with its line number.
func Read(r io.Reader, f Format, header func(Line) (schema int, err error), rec func(Line) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	seen := false
	groups := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			T string `json:"t"`
		}
		err := json.Unmarshal(raw, &probe)
		l := Line{Type: probe.T, raw: raw}
		switch {
		case err != nil:
		case l.Type == f.Header && seen:
			err = errors.New("duplicate header")
		case l.Type == f.Header:
			var schema int
			if schema, err = header(l); err == nil && schema != f.Schema {
				err = fmt.Errorf("schema %d, this build reads schema %d", schema, f.Schema)
			}
			seen = true
		case !seen:
			err = fmt.Errorf("%q record before header", l.Type)
		default:
			if err = f.checkGroup(l, &groups); err == nil {
				err = rec(l)
			}
		}
		if err != nil {
			return fmt.Errorf("%s %d: %w", f.Prefix, lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !seen {
		return errors.New(f.Empty)
	}
	return nil
}

// checkGroup checks one record's group index against the groups opened
// so far, counting a group record as opening the next one.
func (f Format) checkGroup(l Line, groups *int) error {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(l.raw, &fields); err != nil {
		return err
	}
	key := 0
	if raw, ok := fields[f.Key]; ok {
		if err := json.Unmarshal(raw, &key); err != nil {
			return fmt.Errorf("%s: %w", f.Key, err)
		}
	}
	switch {
	case l.Type == f.Group && key != *groups:
		return fmt.Errorf("%s %d out of order (expected %d)", f.Key, key, *groups)
	case l.Type == f.Group:
		*groups++
	case *groups == 0:
		return fmt.Errorf("%q record before any %s record", l.Type, f.Group)
	case key != *groups-1:
		return fmt.Errorf("%q record for %s %d inside %s %d", l.Type, f.Key, key, f.Key, *groups-1)
	}
	return nil
}

// Writer writes a stream one record per line through a buffer, keeping
// the first error: after it, Encode does nothing and Flush returns it.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)} // Encode appends the newline
}

// Encode writes v as one record.
func (w *Writer) Encode(v any) {
	if w.err == nil {
		w.err = w.enc.Encode(v)
	}
}

// Flush writes out the buffer and returns the first error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}
