package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Machine-readable sweep output (philly-sweep -o json). The export carries
// everything a CI diff or a plotting hook needs to reproduce the comparison
// table: the per-replica metrics, the per-metric aggregates keyed by column
// name, and each scenario's fully-applied configuration. It is the Result
// itself: the JSON tags and field order of Result, ScenarioResult,
// Scenario, ReplicaMetrics and Agg are the format. Metrics that can be
// undefined (a scenario that completed zero jobs has NaN percentiles) are
// NFloat, which encodes NaN as JSON null and decodes null back to NaN,
// since JSON itself has no NaN.

// ExportFormatVersion identifies the JSON layout; consumers should reject
// versions they do not understand.
const ExportFormatVersion = 1

// envelope is the export document: the format version, then the result's
// fields.
type envelope struct {
	FormatVersion int `json:"format_version"`
	*Result
}

// NFloat is a float64 whose NaN encodes as JSON null.
type NFloat float64

// MarshalJSON encodes NaN as null.
func (f NFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// UnmarshalJSON decodes null as NaN.
func (f *NFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = NFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = NFloat(v)
	return nil
}

// WriteJSON encodes the result as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(envelope{ExportFormatVersion, r})
}

// DecodeJSON reads an export stream back into a Result. Scenario Apply
// functions are not part of the export, so the decoded result carries the
// scenario configurations and metrics — everything downstream consumers
// (tables, plots, CI diffs) read — but cannot be re-run as a Matrix. The
// stream must hold exactly one export: anything but whitespace after it,
// a second export included, is an error.
func DecodeJSON(rd io.Reader) (*Result, error) {
	e := envelope{Result: &Result{}}
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("sweep: decoding export: %w", err)
	}
	if tok, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("unexpected %v", tok)
		}
		return nil, fmt.Errorf("sweep: decoding export: trailing data after the export: %w", err)
	}
	if e.FormatVersion != ExportFormatVersion {
		return nil, fmt.Errorf("sweep: unsupported export format version %d (want %d)", e.FormatVersion, ExportFormatVersion)
	}
	return e.Result, nil
}
