package engine

import (
	"io"
	"strings"

	"rotorring/internal/registry"
)

// This file is the engine's sink registry: output formats are selected by
// string — a CLI -format value, the service's ?format= parameter — and the
// registry supplies the writer factory, so a new format plugs in with one
// RegisterSink call, with zero engine, CLI or service edits.

// SinkDef describes one registered output format.
type SinkDef struct {
	// Name is the registry key, as it appears in CLI -format flags and the
	// service's format selection.
	Name string
	// New builds a sink writing to w. Each sweep gets a fresh instance.
	New func(w io.Writer) Sink
}

// Sinks is the output-format registry.
var Sinks = registry.New[*SinkDef]("engine", "sink")

// RegisterSink adds an output format to Sinks under its lower-cased name.
func RegisterSink(d *SinkDef) {
	if d.New == nil {
		panic("engine: RegisterSink needs a factory")
	}
	d.Name = strings.ToLower(d.Name)
	Sinks.Add(d.Name, d)
}

// NewSink builds a sink for a registered format name writing to w.
func NewSink(name string, w io.Writer) (Sink, error) {
	d, err := Sinks.Get(name)
	if err != nil {
		return nil, err
	}
	return d.New(w), nil
}

// summaryTableSink folds the streaming SummarySink and its text rendering
// into one registrable format: rows aggregate per cell while streaming, the
// table writes at End.
type summaryTableSink struct {
	*SummarySink
	w io.Writer
}

func (s *summaryTableSink) End() error {
	if err := s.SummarySink.End(); err != nil {
		return err
	}
	return s.WriteTable(s.w)
}

func init() {
	RegisterSink(&SinkDef{Name: "jsonl", New: NewJSONLSink})
	RegisterSink(&SinkDef{Name: "csv", New: NewCSVSink})
	RegisterSink(&SinkDef{Name: "summary", New: func(w io.Writer) Sink {
		return &summaryTableSink{SummarySink: NewSummarySink(), w: w}
	}})
}
