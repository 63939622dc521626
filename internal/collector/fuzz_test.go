package collector

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"

	"dbsherlock/internal/metrics"
)

// FuzzReadCSV throws arbitrary byte streams at the CSV parser. The
// contract under attack: ReadCSV must never panic — malformed headers,
// ragged records, garbage numbers, NaN/Inf, quoting tricks all surface
// as errors — and any dataset it does accept must round-trip through
// WriteCSV/ReadCSV (the schema carries everything needed to re-read it).
func FuzzReadCSV(f *testing.F) {
	f.Add("timestamp,cpu\n1,0.5\n2,0.7\n")
	f.Add("timestamp,cpu,cat:state\n1,0.5,ok\n2,0.7,degraded\n")
	f.Add("timestamp,cpu\n1,NaN\n2,+Inf\n3,-Inf\n")
	f.Add("timestamp,cpu\n1,0.5\n2\n")              // ragged row
	f.Add("timestamp,cpu\n2,0.5\n1,0.7\n")          // timestamps out of order
	f.Add("timestamp,cpu\n1,not-a-number\n")        // garbage value
	f.Add("time,cpu\n1,0.5\n")                      // wrong first column
	f.Add("timestamp\n1\n")                         // no attributes
	f.Add("")                                       // empty input
	f.Add("timestamp,cpu,cpu\n1,0.5,0.6\n")         // duplicate column
	f.Add("timestamp,cat:\n1,x\n")                  // empty categorical name
	f.Add("timestamp,\"a,b\"\n1,2\n")               // quoted header with comma
	f.Add("timestamp,cat:s\n1,\"v,w\"\n")           // quoted categorical value
	f.Add("timestamp,cpu\n9223372036854775808,1\n") // timestamp overflow

	f.Fuzz(func(t *testing.T, input string) {
		ds, err := ReadCSV(strings.NewReader(input)) // must not panic
		if err != nil {
			if ds != nil {
				t.Fatalf("ReadCSV returned both a dataset and error %v", err)
			}
			return
		}
		if ds.Rows() < 0 || ds.NumAttrs() < 1 {
			t.Fatalf("accepted dataset has %d rows, %d attrs", ds.Rows(), ds.NumAttrs())
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, ds); err != nil {
			t.Fatalf("accepted dataset failed to serialize: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round-trip re-read failed: %v\ncsv:\n%s", err, buf.String())
		}
		if back.Rows() != ds.Rows() || back.NumAttrs() != ds.NumAttrs() {
			t.Fatalf("round-trip changed shape: %dx%d -> %dx%d",
				ds.Rows(), ds.NumAttrs(), back.Rows(), back.NumAttrs())
		}
	})
}

// TestReadCSVRaggedRowsError pins the property the fuzzer probes: every
// ragged shape is an error, never a panic or a silently truncated table.
func TestReadCSVRaggedRowsError(t *testing.T) {
	cases := []string{
		"timestamp,a,b\n1,2\n",       // short row
		"timestamp,a\n1,2,3\n",       // long row
		"timestamp,a\n1,2\n2,3,4\n",  // mixed
		"timestamp,a,b\n1,2,3\n2,\n", // trailing short row
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV accepted ragged csv:\n%s", in)
		}
	}
}

// FuzzStreamCSV throws arbitrary bodies at the streaming CSV decoder the
// ingest endpoint runs, at chunk sizes 1..8 so chunk boundaries land
// everywhere. StreamCSV must never panic, must fail exactly when
// ReadCSV of the same bytes fails, and when it succeeds its chunks,
// concatenated, must be ReadCSV's dataset.
func FuzzStreamCSV(f *testing.F) {
	f.Add("timestamp,cpu\n1,0.5\n2,0.7\n3,0.1\n", uint8(1))
	f.Add("timestamp,cpu,cat:state\n1,0.5,ok\n2,0.7,degraded\n3,NaN,ok\n", uint8(2))
	f.Add("timestamp,cpu\n1,0.5\n3,0.7\n2,0.1\n", uint8(1))     // out of order at a chunk boundary
	f.Add("timestamp,cpu,cpu\n", uint8(0))                      // header only, duplicate column
	f.Add("timestamp,cat:\n", uint8(0))                         // header only, empty name
	f.Add("timestamp,cpu\n1,0.5\n2,x\n", uint8(0))              // garbage after a full chunk
	f.Add("timestamp,\"a,b\"\n1,\"2\"\n2,-Inf\n", uint8(3))     // quoting
	f.Add("timestamp,cat:s,n\n1,\"v\nw\",1\n2,x,2\n", uint8(0)) // embedded newline
	f.Fuzz(func(t *testing.T, input string, chunk uint8) {
		chunkRows := 1 + int(chunk%8)
		var chunks []*metrics.Dataset
		serr := StreamCSV(strings.NewReader(input), chunkRows, func(ds *metrics.Dataset) error {
			if ds.Rows() == 0 || ds.Rows() > chunkRows {
				t.Fatalf("chunk of %d rows at chunkRows %d", ds.Rows(), chunkRows)
			}
			chunks = append(chunks, ds)
			return nil
		})
		whole, rerr := ReadCSV(strings.NewReader(input))
		if (serr == nil) != (rerr == nil) {
			t.Fatalf("StreamCSV err = %v, ReadCSV err = %v", serr, rerr)
		}
		if serr != nil {
			return
		}
		row := 0
		for ci, c := range chunks {
			if c.NumAttrs() != whole.NumAttrs() {
				t.Fatalf("chunk %d has %d attrs, ReadCSV %d", ci, c.NumAttrs(), whole.NumAttrs())
			}
			for a := 0; a < c.NumAttrs(); a++ {
				col, wcol := c.ColumnAt(a), whole.ColumnAt(a)
				if col.Attr != wcol.Attr {
					t.Fatalf("chunk %d attr %d: %v, ReadCSV %v", ci, a, col.Attr, wcol.Attr)
				}
				for i := 0; i < c.Rows(); i++ {
					if col.Attr.Type == metrics.Numeric {
						if math.Float64bits(col.Num[i]) != math.Float64bits(wcol.Num[row+i]) {
							t.Fatalf("chunk %d row %d %s: %v, ReadCSV %v", ci, i, col.Attr.Name, col.Num[i], wcol.Num[row+i])
						}
					} else if col.Cat[i] != wcol.Cat[row+i] {
						t.Fatalf("chunk %d row %d %s: %q, ReadCSV %q", ci, i, col.Attr.Name, col.Cat[i], wcol.Cat[row+i])
					}
				}
			}
			for i, ts := range c.Timestamps() {
				if ts != whole.Timestamps()[row+i] {
					t.Fatalf("chunk %d row %d: ts %d, ReadCSV %d", ci, i, ts, whole.Timestamps()[row+i])
				}
			}
			row += c.Rows()
		}
		if row != whole.Rows() {
			t.Fatalf("chunks carried %d rows, ReadCSV %d", row, whole.Rows())
		}
	})
}

// FuzzStreamNDJSON throws arbitrary bodies at the NDJSON decoder the
// ingest endpoint runs. It must never panic, and every chunk it emits
// must carry the schema of the first sample line: its fields other than
// "ts", sorted, strings categorical and everything else numeric.
func FuzzStreamNDJSON(f *testing.F) {
	f.Add("{\"ts\":1,\"cpu\":0.5,\"io\":2}\n{\"ts\":2,\"cpu\":0.6,\"io\":null}\n", uint8(1))
	f.Add("{\"ts\":1,\"state\":\"ok\",\"cpu\":1}\n\n{\"ts\":2,\"state\":\"bad\",\"cpu\":2}\n", uint8(0))
	f.Add("{\"ts\":1,\"cpu\":0.5}\n{\"ts\":2,\"cpu\":\"x\"}\n", uint8(0))       // kind change
	f.Add("{\"ts\":1,\"cpu\":0.5}\n{\"ts\":2,\"mem\":0.5}\n", uint8(0))         // field change
	f.Add("{\"ts\":2,\"cpu\":0.5}\n{\"ts\":1,\"cpu\":0.5}\n", uint8(0))         // out of order
	f.Add("{\"ts\":1e300,\"cpu\":1}\n{\"ts\":\"1\",\"cpu\":1}\n", uint8(2))     // odd timestamps
	f.Add("{\"ts\":1.5,\"cpu\":1}\n", uint8(0))                                 // fractional timestamp
	f.Add("{\"ts\":1e300,\"cpu\":1}\n", uint8(0))                               // above int64
	f.Add("{\"ts\":-1e300,\"cpu\":1}\n", uint8(0))                              // below int64
	f.Add("{\"ts\":9.3e18,\"cpu\":1}\n", uint8(0))                              // above int64
	f.Add("{\"ts\":1}\n", uint8(0))                                             // no attributes
	f.Add("{\"ts\":1,\"a\":1,\"a\":2}\n{\"ts\":2,\"a\":true}\n[1]\n", uint8(3)) // duplicate key, bool, array
	f.Fuzz(func(t *testing.T, input string, chunk uint8) {
		chunkRows := 1 + int(chunk%8)
		var names []string
		var cat []bool
		_ = StreamNDJSON(strings.NewReader(input), chunkRows, func(ds *metrics.Dataset) error {
			if names == nil {
				names, cat = firstLineSchema(t, input)
			}
			if ds.NumAttrs() != len(names) {
				t.Fatalf("chunk has %d attrs, first line %d", ds.NumAttrs(), len(names))
			}
			for a := 0; a < ds.NumAttrs(); a++ {
				attr := ds.ColumnAt(a).Attr
				if attr.Name != names[a] || (attr.Type == metrics.Categorical) != cat[a] {
					t.Fatalf("chunk attr %d is %v, first line has %q categorical=%v", a, attr, names[a], cat[a])
				}
			}
			return nil
		})
	})
}

// firstLineSchema is the schema of input's first non-blank NDJSON line,
// decoded independently of StreamNDJSON.
func firstLineSchema(t *testing.T, input string) (names []string, cat []bool) {
	t.Helper()
	for _, line := range strings.Split(input, "\n") {
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("a chunk was emitted but the first line does not decode: %v", err)
		}
		delete(obj, ndjsonTimeKey)
		for name := range obj {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			_, isStr := obj[name].(string)
			cat = append(cat, isStr)
		}
		return names, cat
	}
	t.Fatal("a chunk was emitted from a body without sample lines")
	return nil, nil
}
