package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"spider/internal/obs"
	"spider/internal/telemetry"
)

// RunStore files every simulation run of an experiment sweep under its run
// label ("chaos#0", "population#n=8", …) and exports each artifact in
// sorted label order, so the merged files are byte-identical however the
// runs were scheduled across fleet workers. A label names exactly one
// run: filing a second run under a label the store holds is an error.
// File is safe from fleet job goroutines.
type RunStore struct {
	traces  bool
	rollups bool

	mu   sync.Mutex
	runs map[string]*runArtifacts
}

// runArtifacts is what one run leaves in the store.
type runArtifacts struct {
	events  []obs.Event
	spans   []obs.Span
	windows []telemetry.Window
}

// NewRunStore returns an empty store. traces asks every run to record its
// event and span streams; rollups asks every run to attach a telemetry
// aggregator (default window, default SLOs) and keep its closed windows.
func NewRunStore(traces, rollups bool) *RunStore {
	return &RunStore{traces: traces, rollups: rollups, runs: make(map[string]*runArtifacts)}
}

// Traces reports whether runs record events and spans. False on nil.
func (s *RunStore) Traces() bool { return s != nil && s.traces }

// Rollups reports whether runs attach a telemetry aggregator. False on
// nil.
func (s *RunStore) Rollups() bool { return s != nil && s.rollups }

// File stores one finished run's retained events and spans (rec) and its
// closed windows (tel) under label; either may be nil. It refuses a label
// the store already holds. No-op on a nil store.
func (s *RunStore) File(label string, rec *obs.Recorder, tel *telemetry.Aggregator) error {
	if s == nil {
		return nil
	}
	a := &runArtifacts{events: rec.Events(), spans: rec.Spans(), windows: tel.Windows()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.runs[label]; dup {
		return fmt.Errorf("experiments: run label %q filed twice", label)
	}
	s.runs[label] = a
	return nil
}

// sorted returns the filed runs in label (export) order; none on nil.
func (s *RunStore) sorted() ([]string, []*runArtifacts) {
	if s == nil {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	labels := make([]string, 0, len(s.runs))
	for l := range s.runs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	runs := make([]*runArtifacts, len(labels))
	for i, l := range labels {
		runs[i] = s.runs[l]
	}
	return labels, runs
}

// Totals counts the filed runs and the events, spans and rollup windows
// they hold.
func (s *RunStore) Totals() (runs, events, spans, windows int) {
	labels, arts := s.sorted()
	for _, a := range arts {
		events += len(a.events)
		spans += len(a.spans)
		windows += len(a.windows)
	}
	return len(labels), events, spans, windows
}

// WriteEvents exports every run's event stream, runs in label order and
// events in canonical (sim-time, client, seq) order within each run.
func (s *RunStore) WriteEvents(w io.Writer) error {
	labels, arts := s.sorted()
	for i, a := range arts {
		if err := obs.WriteJSONL(w, labels[i], a.events); err != nil {
			return err
		}
	}
	return nil
}

// WriteSpans exports every run's spans, runs in label order and spans in
// canonical order within each run.
func (s *RunStore) WriteSpans(w io.Writer) error {
	labels, arts := s.sorted()
	for i, a := range arts {
		if err := obs.WriteSpansJSONL(w, labels[i], a.spans); err != nil {
			return err
		}
	}
	return nil
}

// WriteRollups exports every run's closed windows, runs in label order;
// runs without an aggregator write nothing.
func (s *RunStore) WriteRollups(w io.Writer) error {
	labels, arts := s.sorted()
	for i, a := range arts {
		if err := telemetry.WriteRollupsJSONL(w, labels[i], a.windows); err != nil {
			return err
		}
	}
	return nil
}
