package collector

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dbsherlock/internal/metrics"
)

// categoricalPrefix marks categorical columns in the CSV header so the
// schema round-trips without a side channel.
const categoricalPrefix = "cat:"

// WriteCSV serializes a dataset: a header row of "timestamp" plus
// attribute names (categorical ones prefixed with "cat:"), then one row
// per second.
func WriteCSV(w io.Writer, ds *metrics.Dataset) error {
	cw := csv.NewWriter(w)
	header := []string{"timestamp"}
	for _, a := range ds.Attributes() {
		name := a.Name
		if a.Type == metrics.Categorical {
			name = categoricalPrefix + name
		}
		header = append(header, name)
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("collector: write csv header: %w", err)
	}
	ts := ds.Timestamps()
	for i := 0; i < ds.Rows(); i++ {
		row := make([]string, 0, len(header))
		row = append(row, strconv.FormatInt(ts[i], 10))
		for j := 0; j < ds.NumAttrs(); j++ {
			col := ds.ColumnAt(j)
			if col.Attr.Type == metrics.Numeric {
				row = append(row, strconv.FormatFloat(col.Num[i], 'g', -1, 64))
			} else {
				row = append(row, col.Cat[i])
			}
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("collector: write csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// csvDecoder is the streaming columnar CSV reader shared by ReadCSV
// (one dataset for the whole stream) and StreamCSV (one dataset per
// chunk). The header fixes the schema; next decodes one record into a
// chunkBuilder.
type csvDecoder struct {
	cr    *csv.Reader
	names []string
	cat   []bool
	row   int
	last  int64 // the previous row's timestamp
}

func newCSVDecoder(r io.Reader) (*csvDecoder, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	first, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("collector: empty csv")
	}
	if err != nil {
		return nil, fmt.Errorf("collector: read csv: %w", err)
	}
	if len(first) < 2 || first[0] != "timestamp" {
		return nil, fmt.Errorf("collector: csv must start with a timestamp column")
	}
	d := &csvDecoder{cr: cr}
	for c := 1; c < len(first); c++ {
		name := strings.Clone(first[c])
		if cat, ok := strings.CutPrefix(name, categoricalPrefix); ok {
			d.names = append(d.names, cat)
			d.cat = append(d.cat, true)
		} else {
			d.names = append(d.names, name)
			d.cat = append(d.cat, false)
		}
	}
	return d, nil
}

// next decodes one record into b, reporting false at a clean EOF.
func (d *csvDecoder) next(b *chunkBuilder) (bool, error) {
	rec, err := d.cr.Read()
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("collector: read csv: %w", err)
	}
	if len(rec) != len(d.names)+1 {
		return false, fmt.Errorf("collector: csv row %d has %d fields, want %d",
			d.row, len(rec), len(d.names)+1)
	}
	t, err := strconv.ParseInt(rec[0], 10, 64)
	if err != nil {
		return false, fmt.Errorf("collector: csv row %d timestamp: %w", d.row, err)
	}
	// Checked across the whole stream, not only within a chunk, so
	// StreamCSV rejects what ReadCSV rejects.
	if d.row > 0 && t <= d.last {
		return false, fmt.Errorf("collector: csv row %d: timestamp %d not after %d", d.row, t, d.last)
	}
	d.last = t
	b.ts = append(b.ts, t)
	for c := range d.names {
		f := rec[c+1]
		if d.cat[c] {
			b.str[c] = append(b.str[c], b.intern(f))
			continue
		}
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return false, fmt.Errorf("collector: csv row %d column %q: %w", d.row, d.names[c], err)
		}
		b.num[c] = append(b.num[c], x)
	}
	d.row++
	return true, nil
}

// ReadCSV parses a dataset written by WriteCSV. Parsing streams: each
// record is decoded straight into columnar builders — timestamps,
// float64 columns, interned categorical values — so no row-oriented
// [][]string copy of the upload is ever materialized (the former
// ReadAll held every field of the file as a separate string at once).
// csv.Reader's record buffer is reused across rows; the only strings
// retained are the column names and one copy per distinct categorical
// value.
func ReadCSV(r io.Reader) (*metrics.Dataset, error) {
	dec, err := newCSVDecoder(r)
	if err != nil {
		return nil, err
	}
	b := newChunkBuilder(dec.names, dec.cat)
	for {
		ok, err := dec.next(b)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	ds, err := b.flush()
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	return ds, nil
}
