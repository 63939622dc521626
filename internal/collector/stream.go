package collector

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"dbsherlock/internal/metrics"
)

// DefaultChunkRows is the flush granularity StreamCSV and StreamNDJSON
// use when the caller passes chunkRows <= 0. 256 rows keeps per-chunk
// Dataset overhead negligible while bounding how much of an unbounded
// agent stream is buffered before it reaches the ingest registry.
const DefaultChunkRows = 256

// chunkBuilder accumulates decoded rows column-by-column and flushes
// them as immutable Datasets. The schema (names + kinds) is fixed by
// whoever constructs it and shared across every flushed chunk, which is
// exactly what the ingest registry's per-instance schema check needs.
type chunkBuilder struct {
	names []string
	cat   []bool
	ts    []int64
	num   [][]float64
	str   [][]string

	// interned deduplicates categorical strings across chunks so a
	// long-running stream retains one copy per distinct value, not one
	// per row (same policy as ReadCSV).
	interned map[string]string
}

func newChunkBuilder(names []string, cat []bool) *chunkBuilder {
	b := &chunkBuilder{names: names, cat: cat, interned: make(map[string]string)}
	b.num = make([][]float64, len(names))
	b.str = make([][]string, len(names))
	return b
}

func (b *chunkBuilder) rows() int { return len(b.ts) }

func (b *chunkBuilder) intern(s string) string {
	if v, ok := b.interned[s]; ok {
		return v
	}
	v := strings.Clone(s)
	b.interned[v] = v
	return v
}

// flush builds a Dataset from the buffered rows and resets the buffers.
// The column slices are handed to the Dataset (which retains them), so
// fresh backing arrays are started for the next chunk.
func (b *chunkBuilder) flush() (*metrics.Dataset, error) {
	ds, err := metrics.NewDataset(b.ts)
	if err != nil {
		return nil, err
	}
	for c := range b.names {
		if b.cat[c] {
			vals := b.str[c]
			if vals == nil {
				vals = []string{}
			}
			err = ds.AddCategorical(b.names[c], vals)
		} else {
			vals := b.num[c]
			if vals == nil {
				vals = []float64{}
			}
			err = ds.AddNumeric(b.names[c], vals)
		}
		if err != nil {
			return nil, err
		}
		b.num[c], b.str[c] = nil, nil
	}
	b.ts = nil
	return ds, nil
}

// StreamCSV decodes a WriteCSV-format stream incrementally: every
// chunkRows decoded rows (<= 0: DefaultChunkRows) are flushed as one
// Dataset to fn, so an unbounded agent stream is never materialized
// whole. The schema is fixed by the header and identical across chunks;
// fn returning an error aborts the decode and is returned unwrapped so
// callers (the ingest endpoint) can map their own sentinel errors.
func StreamCSV(r io.Reader, chunkRows int, fn func(*metrics.Dataset) error) error {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	dec, err := newCSVDecoder(r)
	if err != nil {
		return err
	}
	b := newChunkBuilder(dec.names, dec.cat)
	for {
		ok, err := dec.next(b)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if b.rows() >= chunkRows {
			ds, err := b.flush()
			if err != nil {
				return fmt.Errorf("collector: %w", err)
			}
			if err := fn(ds); err != nil {
				return err
			}
		}
	}
	if b.rows() > 0 || dec.row == 0 {
		// A body with no rows still builds its empty chunk, so a bad
		// header fails here as it does in ReadCSV; the chunk is not sent.
		ds, err := b.flush()
		if err != nil {
			return fmt.Errorf("collector: %w", err)
		}
		if ds.Rows() > 0 {
			return fn(ds)
		}
	}
	return nil
}

// maxNDJSONLine caps one NDJSON sample line (1 MiB). A single
// per-second sample is a few hundred bytes even with the full ~130
// paper attributes; a megabyte line is a broken agent, not a sample.
const maxNDJSONLine = 1 << 20

// ndjsonTimeKey is the required timestamp field of every NDJSON sample.
const ndjsonTimeKey = "ts"

// StreamNDJSON decodes newline-delimited JSON samples: one object per
// line with a numeric "ts" (unix seconds) plus one field per attribute
// — JSON numbers become numeric attributes (null reads as NaN), JSON
// strings categorical ones. The first line fixes the schema (attribute
// names sorted, so the column order is deterministic regardless of JSON
// key order); later lines must carry exactly the same fields. Every
// chunkRows rows (<= 0: DefaultChunkRows) are flushed as one Dataset to
// fn, as in StreamCSV.
func StreamNDJSON(r io.Reader, chunkRows int, fn func(*metrics.Dataset) error) error {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxNDJSONLine)

	var b *chunkBuilder
	var kinds map[string]bool // name -> categorical?
	row := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			return fmt.Errorf("collector: ndjson line %d: %w", row, err)
		}
		tsv, ok := obj[ndjsonTimeKey]
		if !ok {
			return fmt.Errorf("collector: ndjson line %d: missing %q field", row, ndjsonTimeKey)
		}
		tsf, ok := tsv.(float64)
		if !ok {
			return fmt.Errorf("collector: ndjson line %d: %q must be a number", row, ndjsonTimeKey)
		}
		// int64(tsf) is only defined for integral values inside the int64
		// range: 1.5 would truncate and 1e300 would wrap.
		if tsf != math.Trunc(tsf) || tsf < math.MinInt64 || tsf >= math.MaxInt64 {
			return fmt.Errorf("collector: ndjson line %d: %q must be an integral unix second, got %v", row, ndjsonTimeKey, tsf)
		}
		delete(obj, ndjsonTimeKey)

		if b == nil {
			names := make([]string, 0, len(obj))
			for k := range obj {
				names = append(names, k)
			}
			sort.Strings(names)
			if len(names) == 0 {
				return fmt.Errorf("collector: ndjson line %d: sample carries no attributes", row)
			}
			cat := make([]bool, len(names))
			kinds = make(map[string]bool, len(names))
			for i, name := range names {
				_, isStr := obj[name].(string)
				cat[i] = isStr
				kinds[name] = isStr
			}
			b = newChunkBuilder(names, cat)
		}
		if len(obj) != len(b.names) {
			return fmt.Errorf("collector: ndjson line %d has %d attributes, schema has %d",
				row, len(obj), len(b.names))
		}
		for c, name := range b.names {
			v, ok := obj[name]
			if !ok {
				return fmt.Errorf("collector: ndjson line %d: missing attribute %q", row, name)
			}
			if kinds[name] {
				s, ok := v.(string)
				if !ok {
					return fmt.Errorf("collector: ndjson line %d: attribute %q must be a string", row, name)
				}
				b.str[c] = append(b.str[c], b.intern(s))
				continue
			}
			switch x := v.(type) {
			case float64:
				b.num[c] = append(b.num[c], x)
			case nil:
				b.num[c] = append(b.num[c], math.NaN())
			default:
				return fmt.Errorf("collector: ndjson line %d: attribute %q must be a number", row, name)
			}
		}
		b.ts = append(b.ts, int64(tsf))
		row++
		if b.rows() >= chunkRows {
			ds, err := b.flush()
			if err != nil {
				return fmt.Errorf("collector: %w", err)
			}
			if err := fn(ds); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("collector: ndjson: %w", err)
	}
	if b != nil && b.rows() > 0 {
		ds, err := b.flush()
		if err != nil {
			return fmt.Errorf("collector: %w", err)
		}
		return fn(ds)
	}
	if row == 0 {
		return fmt.Errorf("collector: empty ndjson stream")
	}
	return nil
}
