package sweep

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecodeJSON is the sweep export's parse-surface oracle: no input
// panics DecodeJSON; an accepted export renders through RenderTable,
// WritePlotCSV and WritePlotMarkdown without panicking; and re-encoding is
// a fixed point — WriteJSON of the decoded result decodes and re-encodes
// to the same bytes. The seeds under testdata/fuzz/FuzzDecodeJSON are a
// few hundred bytes each: a minimal export, one scenario with a null
// metric and a summary, an export followed by garbage, two concatenated
// exports and an unknown version. A 40 KB seed such as testdata/plot.json
// leaves the fuzzer minimizing instead of executing.
func FuzzDecodeJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		res, err := DecodeJSON(bytes.NewReader(in))
		if err != nil {
			return
		}
		_ = res.RenderTable()
		if err := res.WritePlotCSV(io.Discard); err != nil {
			t.Fatalf("WritePlotCSV: %v", err)
		}
		if err := res.WritePlotMarkdown(io.Discard); err != nil {
			t.Fatalf("WritePlotMarkdown: %v", err)
		}
		var first bytes.Buffer
		if err := res.WriteJSON(&first); err != nil {
			t.Fatalf("WriteJSON of an accepted export: %v", err)
		}
		again, err := DecodeJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded export refused: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatalf("WriteJSON of the re-decoded export: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
