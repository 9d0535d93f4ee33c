package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event sink: the "JSON Array Format" understood by Perfetto
// and chrome://tracing. Each traced run becomes one thread (tid = run
// index) in a single process; collections and phases are B/E duration
// events. Timestamps are simulated cycles written into the "ts"
// microsecond field verbatim — the UI's time unit label is wrong but every
// duration ratio is exact, and the output stays byte-identical across
// runs. Counter deltas ride on the gc_end E event's args.

// ChromeEvent is one Chrome trace-event record.
type ChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeMeta returns a metadata ("M") record naming a process or thread.
func ChromeMeta(name string, pid, tid int, value string) ChromeEvent {
	return ChromeEvent{
		Name: name, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": value},
	}
}

// WriteChromeEvents writes one Chrome trace-event JSON document to w:
// body receives an emit function and calls it once per event, in order.
func WriteChromeEvents(w io.Writer, body func(emit func(ChromeEvent) error) error) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(e ChromeEvent) error {
		if !first {
			if _, err := io.WriteString(bw, ",\n"); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}
	if err := body(emit); err != nil {
		return err
	}
	if _, err := io.WriteString(bw, "\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteChrome writes the file as Chrome trace-event JSON.
func (f *File) WriteChrome(w io.Writer) error {
	return WriteChromeEvents(w, func(emit func(ChromeEvent) error) error {
		if err := emit(ChromeMeta("process_name", 0, 0, "gcsim")); err != nil {
			return err
		}
		for tid, d := range f.Runs {
			label := d.Label
			if label == "" {
				label = fmt.Sprintf("run %d", tid)
			}
			if err := emit(ChromeMeta("thread_name", 0, tid, label)); err != nil {
				return err
			}
			openMajor := false
			for _, e := range d.Events {
				ce := ChromeEvent{Pid: 0, Tid: tid, Ts: uint64(e.At())}
				switch e.Kind {
				case EvGCBegin:
					openMajor = e.Major
					ce.Ph = "B"
					ce.Name = gcSpanName(e.Major, e.Seq)
					ce.Args = map[string]any{"seq": e.Seq}
				case EvGCEnd:
					ce.Ph = "E"
					ce.Name = gcSpanName(openMajor, e.Seq)
					ce.Args = counterArgs(e.Counters)
				case EvPhaseBegin:
					ce.Ph = "B"
					ce.Name = e.Phase.String()
				case EvPhaseEnd:
					ce.Ph = "E"
					ce.Name = e.Phase.String()
				}
				if err := emit(ce); err != nil {
					return err
				}
			}
			// Footprint timeline: one counter ("C") track per space, two
			// series each (live, committed), sampled at every gc_end. Perfetto
			// renders these as stacked area charts under the run's thread.
			for _, h := range d.Heap {
				for _, sp := range h.Spaces {
					if err := emit(ChromeEvent{
						Name: "heap." + sp.Name, Ph: "C", Pid: 0, Tid: tid,
						Ts:   uint64(h.Break.Total()),
						Args: map[string]any{"live": sp.Live, "committed": sp.Committed},
					}); err != nil {
						return err
					}
				}
			}
			// Request spans as complete ("X") events: ts/dur carry the span,
			// args carry the GC share so slow requests can be attributed to
			// the pauses that landed inside them without cross-referencing.
			for _, q := range d.Reqs {
				if err := emit(ChromeEvent{
					Name: fmt.Sprintf("req %d", q.ID), Ph: "X", Pid: 0, Tid: tid,
					Ts: uint64(q.Begin.Total()), Dur: uint64(q.Latency()),
					Args: map[string]any{"gc_cycles": uint64(q.GCCycles())},
				}); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func gcSpanName(major bool, seq uint64) string {
	if major {
		return fmt.Sprintf("GC %d (major)", seq)
	}
	return fmt.Sprintf("GC %d", seq)
}

// counterArgs flattens GC counters into trace-event args. Keys are listed
// explicitly (not ranged from a map) so output order is fixed; json.Marshal
// then sorts map keys, which is itself deterministic, but the explicit
// construction keeps the set documented in one place.
func counterArgs(c *GCCounters) map[string]any {
	if c == nil {
		return nil
	}
	args := map[string]any{
		"majors":         c.Majors,
		"frames_decoded": c.FramesDecoded,
		"frames_reused":  c.FramesReused,
		"markers_placed": c.MarkersPlaced,
		"roots_found":    c.RootsFound,
		"bytes_copied":   c.BytesCopied,
		"bytes_scanned":  c.BytesScanned,
		"objects_copied": c.ObjectsCopied,
		"ssb_processed":  c.SSBProcessed,
		"los_swept":      c.LOSSwept,
		"pretenured":     c.Pretenured,
	}
	// Non-moving old-generation counters appear only when set, mirroring
	// the JSONL omitempty treatment: copying-collector traces keep their
	// pre-oldgen bytes.
	if c.ObjectsMarked != 0 {
		args["objects_marked"] = c.ObjectsMarked
	}
	if c.WordsMarked != 0 {
		args["words_marked"] = c.WordsMarked
	}
	if c.WordsSwept != 0 {
		args["words_swept"] = c.WordsSwept
	}
	if c.WordsSlid != 0 {
		args["words_slid"] = c.WordsSlid
	}
	return args
}
