package slo

import (
	"bufio"
	"fmt"
	"io"

	"tilgc/internal/costmodel"
	"tilgc/internal/jsonl"
)

// JSONL report sink, mirroring the trace sink's contract: one record per
// line, schema-versioned, strict reader (unknown record types and fields
// rejected), and read -> write byte-identity. Record kinds, in stream
// order:
//
//	{"t":"slo_header","schema":1,"clock_hz":150000000,"windows":[...],"runs":N}
//	{"t":"slo_run","run":i,"label":..,"total":..,"gc":..,"collections":..,"majors":..}
//	{"t":"slo_pauses","run":i,"count":..,"total":..,"p50":..,"p90":..,"p99":..,"p999":..,"max":..}
//	{"t":"slo_window","run":i,"window":..,"mmu_ppm":..,"amu_ppm":..,"worst_start":..,"worst_pause":..}
//	{"t":"slo_requests","run":i,"count":..,...}   request-serving runs only
//
// All quantities are integers (cycles or ppm); the stream contains no
// floats and no wall-clock values.

type recHeader struct {
	T       string   `json:"t"`
	Schema  int      `json:"schema"`
	ClockHz uint64   `json:"clock_hz"`
	Windows []uint64 `json:"windows"`
	Runs    int      `json:"runs"`
}

type recRun struct {
	T           string `json:"t"`
	Run         int    `json:"run"`
	Label       string `json:"label"`
	Total       uint64 `json:"total"`
	GC          uint64 `json:"gc"`
	Collections uint64 `json:"collections"`
	Majors      uint64 `json:"majors"`
}

type recPauses struct {
	T     string `json:"t"`
	Run   int    `json:"run"`
	Count uint64 `json:"count"`
	Total uint64 `json:"total"`
	P50   uint64 `json:"p50"`
	P90   uint64 `json:"p90"`
	P99   uint64 `json:"p99"`
	P999  uint64 `json:"p999"`
	Max   uint64 `json:"max"`
}

type recWindow struct {
	T          string `json:"t"`
	Run        int    `json:"run"`
	Window     uint64 `json:"window"`
	MMUppm     uint64 `json:"mmu_ppm"`
	AMUppm     uint64 `json:"amu_ppm"`
	WorstStart uint64 `json:"worst_start"`
	WorstPause uint64 `json:"worst_pause"`
}

type recRequests struct {
	T     string `json:"t"`
	Run   int    `json:"run"`
	Count uint64 `json:"count"`
	P50   uint64 `json:"p50"`
	P90   uint64 `json:"p90"`
	P99   uint64 `json:"p99"`
	P999  uint64 `json:"p999"`
	Max   uint64 `json:"max"`
	GC    uint64 `json:"gc"`
	GCHit uint64 `json:"gc_hit"`
}

// WriteJSONL writes the report as schema-versioned JSONL.
func (r *Report) WriteJSONL(w io.Writer) error {
	enc := jsonl.NewWriter(w)
	enc.Encode(recHeader{T: "slo_header", Schema: r.Schema, ClockHz: r.ClockHz,
		Windows: r.Windows, Runs: len(r.Runs)})
	for i, rr := range r.Runs {
		enc.Encode(recRun{T: "slo_run", Run: i, Label: rr.Label,
			Total: rr.Total, GC: rr.GC, Collections: rr.Collections, Majors: rr.Majors})
		p := rr.Pauses
		enc.Encode(recPauses{T: "slo_pauses", Run: i, Count: p.Count, Total: p.Total,
			P50: p.P50, P90: p.P90, P99: p.P99, P999: p.P999, Max: p.Max})
		for _, ws := range rr.Windows {
			enc.Encode(recWindow{T: "slo_window", Run: i, Window: ws.Window,
				MMUppm: ws.MMUppm, AMUppm: ws.AMUppm,
				WorstStart: ws.WorstStart, WorstPause: ws.WorstPause})
		}
		if q := rr.Requests; q != nil {
			enc.Encode(recRequests{T: "slo_requests", Run: i, Count: q.Count,
				P50: q.P50, P90: q.P90, P99: q.P99, P999: q.P999, Max: q.Max,
				GC: q.GC, GCHit: q.GCHit})
		}
	}
	return enc.Flush()
}

// ReadJSONL parses a JSONL report, rejecting unknown record types,
// unknown fields, out-of-order run records, and unknown schema versions.
func ReadJSONL(r io.Reader) (*Report, error) {
	var rep *Report
	var cur *RunReport
	format := jsonl.Format{Prefix: "slo: line", Empty: "slo: empty input (no header record)",
		Header: "slo_header", Schema: SchemaVersion, Group: "slo_run", Key: "run"}
	header := func(l jsonl.Line) (int, error) {
		var h recHeader
		if err := l.Decode(&h); err != nil {
			return 0, err
		}
		rep = &Report{Schema: h.Schema, ClockHz: h.ClockHz, Windows: h.Windows}
		return h.Schema, nil
	}
	err := jsonl.Read(r, format, header, func(l jsonl.Line) error {
		switch l.Type {
		case "slo_run":
			var rr recRun
			if err := l.Decode(&rr); err != nil {
				return err
			}
			cur = &RunReport{Label: rr.Label, Total: rr.Total, GC: rr.GC,
				Collections: rr.Collections, Majors: rr.Majors}
			rep.Runs = append(rep.Runs, cur)
		case "slo_pauses":
			var rp recPauses
			if err := l.Decode(&rp); err != nil {
				return err
			}
			cur.Pauses = PauseStats{Count: rp.Count, Total: rp.Total,
				P50: rp.P50, P90: rp.P90, P99: rp.P99, P999: rp.P999, Max: rp.Max}
		case "slo_window":
			var rw recWindow
			if err := l.Decode(&rw); err != nil {
				return err
			}
			cur.Windows = append(cur.Windows, WindowStats{Window: rw.Window,
				MMUppm: rw.MMUppm, AMUppm: rw.AMUppm,
				WorstStart: rw.WorstStart, WorstPause: rw.WorstPause})
		case "slo_requests":
			var rq recRequests
			if err := l.Decode(&rq); err != nil {
				return err
			}
			cur.Requests = &RequestStats{Count: rq.Count,
				P50: rq.P50, P90: rq.P90, P99: rq.P99, P999: rq.P999, Max: rq.Max,
				GC: rq.GC, GCHit: rq.GCHit}
		default:
			return fmt.Errorf("unknown record type %q", l.Type)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// Validate checks the report's structural invariants: current schema, a
// strictly ascending nonzero window sweep shared by every run, percentile
// monotonicity, ppm bounds, and request-stat consistency.
func (r *Report) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("slo: schema %d, want %d", r.Schema, SchemaVersion)
	}
	if err := checkWindows(r.Windows); err != nil {
		return err
	}
	for i, rr := range r.Runs {
		if err := rr.validate(r.Windows); err != nil {
			return fmt.Errorf("run %d (%s): %w", i, rr.Label, err)
		}
	}
	return nil
}

func monotone(vals ...uint64) bool {
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			return false
		}
	}
	return true
}

func (rr *RunReport) validate(windows []uint64) error {
	if rr.GC > rr.Total {
		return fmt.Errorf("gc cycles %d exceed run total %d", rr.GC, rr.Total)
	}
	p := rr.Pauses
	if !monotone(p.P50, p.P90, p.P99, p.P999, p.Max) {
		return fmt.Errorf("pause percentiles not monotone: %+v", p)
	}
	if p.Count == 0 && (p.Total != 0 || p.Max != 0) {
		return fmt.Errorf("pause stats nonzero with zero collections")
	}
	if len(rr.Windows) != len(windows) {
		return fmt.Errorf("%d window stats, sweep has %d windows", len(rr.Windows), len(windows))
	}
	for i, ws := range rr.Windows {
		if ws.Window != windows[i] {
			return fmt.Errorf("window %d is %d cycles, sweep says %d", i, ws.Window, windows[i])
		}
		if ws.MMUppm > 1e6 || ws.AMUppm > 1e6 {
			return fmt.Errorf("window %d: utilization above 1e6 ppm", i)
		}
		if ws.MMUppm > ws.AMUppm {
			return fmt.Errorf("window %d: MMU %d ppm above AMU %d ppm", i, ws.MMUppm, ws.AMUppm)
		}
		if ws.WorstPause > ws.Window && ws.WorstPause > rr.Total {
			return fmt.Errorf("window %d: worst pause mass %d exceeds both window and run", i, ws.WorstPause)
		}
	}
	if q := rr.Requests; q != nil {
		if !monotone(q.P50, q.P90, q.P99, q.P999, q.Max) {
			return fmt.Errorf("request percentiles not monotone: %+v", *q)
		}
		if q.GCHit > q.Count {
			return fmt.Errorf("requests hit by GC (%d) exceed request count (%d)", q.GCHit, q.Count)
		}
		if q.GC > rr.GC {
			return fmt.Errorf("gc cycles inside requests (%d) exceed run gc total (%d)", q.GC, rr.GC)
		}
	}
	return nil
}

// WriteTable renders the report for humans: per run, the pause and
// request percentile lines and the utilization curve. Percentages are
// derived from the stored ppm values only at render time.
func (r *Report) WriteTable(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hz := float64(r.ClockHz)
	if hz == 0 {
		hz = costmodel.ClockHz
	}
	ms := func(c uint64) float64 { return float64(c) / hz * 1e3 }
	pct := func(ppm uint64) float64 { return float64(ppm) / 1e4 }
	for i, rr := range r.Runs {
		label := rr.Label
		if label == "" {
			label = fmt.Sprintf("run %d", i)
		}
		fmt.Fprintf(bw, "== %s ==\n", label)
		fmt.Fprintf(bw, "cycles: total=%d gc=%d (%d collections, %d major)\n",
			rr.Total, rr.GC, rr.Collections, rr.Majors)
		p := rr.Pauses
		fmt.Fprintf(bw, "pauses:   n=%-6d p50=%-10d p90=%-10d p99=%-10d p99.9=%-10d max=%d (%.4f ms)\n",
			p.Count, p.P50, p.P90, p.P99, p.P999, p.Max, ms(p.Max))
		if q := rr.Requests; q != nil {
			fmt.Fprintf(bw, "requests: n=%-6d p50=%-10d p90=%-10d p99=%-10d p99.9=%-10d max=%d (%.4f ms)\n",
				q.Count, q.P50, q.P90, q.P99, q.P999, q.Max, ms(q.Max))
			fmt.Fprintf(bw, "          gc inside requests: %d cycles across %d/%d requests\n",
				q.GC, q.GCHit, q.Count)
		}
		fmt.Fprintf(bw, "utilization:\n")
		fmt.Fprintf(bw, "  %12s %9s %9s %14s %14s\n", "window", "MMU", "AMU", "worst@", "pause-in-window")
		for _, ws := range rr.Windows {
			fmt.Fprintf(bw, "  %12d %8.2f%% %8.2f%% %14d %14d\n",
				ws.Window, pct(ws.MMUppm), pct(ws.AMUppm), ws.WorstStart, ws.WorstPause)
		}
		if i < len(r.Runs)-1 {
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}
