package object

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"orochi/internal/encio"

	"orochi/internal/lang"
	"orochi/internal/sqlmini"
)

// A snapshot encodes as the magic "OSNP", the registers and the KV
// store as key-sorted pairs of key and lang.EncodeValue, and the tables
// in name order, each as its columns, its next auto-increment value and
// its rows in order (row order is state). Each SQL value is a tag byte
// and its payload. So the raw form is a function of the state alone:
// the fleet hands snapshots off as content-addressed chunks, and the
// same state has to cut to the same chunks on every worker and from one
// epoch to the next.

const snapshotMagic = "OSNP"

// SQL value tags.
const (
	sqlNull byte = iota
	sqlInt
	sqlFloat
	sqlText
)

// EncodeRaw serializes the snapshot uncompressed — the logical form the
// content-addressed store chunks (compression moves down to the chunk
// layer). Equal states encode to equal bytes.
func (s *Snapshot) EncodeRaw() ([]byte, error) {
	w := encio.NewWriter(snapshotMagic)
	putValue := func(k string, v lang.Value) {
		w.String(k)
		w.String(lang.EncodeValue(v))
	}
	encio.WriteMap(w, s.Registers, putValue)
	encio.WriteMap(w, s.KV, putValue)
	tables := slices.Clone(s.Tables)
	sort.SliceStable(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	w.Uint(uint64(len(tables)))
	for _, t := range tables {
		w.String(t.Name)
		encio.WriteList(w, t.Cols, func(c sqlmini.Column) {
			w.String(c.Name)
			w.Byte(byte(c.Type))
			w.Bool(c.AutoInc)
		})
		w.Int(t.NextAuto)
		w.Uint(uint64(len(t.Rows)))
		for r, row := range t.Rows {
			if len(row) != len(t.Cols) {
				return nil, fmt.Errorf("object: encode snapshot: table %s row %d has %d values for %d columns", t.Name, r, len(row), len(t.Cols))
			}
			for _, v := range row {
				switch x := v.(type) {
				case nil:
					w.Byte(sqlNull)
				case int64:
					w.Byte(sqlInt)
					w.Int(x)
				case float64:
					w.Byte(sqlFloat)
					w.Uint(math.Float64bits(x))
				case string:
					w.Byte(sqlText)
					w.String(x)
				default:
					return nil, fmt.Errorf("object: encode snapshot: table %s holds a %T", t.Name, v)
				}
			}
		}
	}
	return w.Bytes(), nil
}

// DecodeSnapshotRaw deserializes a snapshot produced by EncodeRaw. Input
// is untrusted: anything but the canonical encoding of some state,
// trailing bytes included, is an error. (The sizes handed to ReadList
// and ReadMap are the fewest bytes an entry encodes to.)
func DecodeSnapshotRaw(data []byte) (*Snapshot, error) {
	r := encio.NewReader(data, snapshotMagic)
	// A value must be in the one form lang.EncodeValue writes.
	getValue := func() (string, lang.Value) {
		k, enc := r.String(), r.String()
		v, err := lang.DecodeValue(enc)
		if err == nil && lang.EncodeValue(v) != enc {
			err = fmt.Errorf("not in canonical form")
		}
		if err != nil {
			r.Failf("value of %q: %v", k, err)
		}
		return k, v
	}
	out := &Snapshot{Registers: encio.ReadMap(r, 2, getValue), KV: encio.ReadMap(r, 2, getValue)}
	n := r.Len(7) // name, a column, next auto, rows
	for i := 0; i < n; i++ {
		name := r.String()
		if i > 0 && name <= out.Tables[i-1].Name {
			r.Failf("tables out of order at %q", name)
		}
		cols := encio.ReadList(r, 3, func() sqlmini.Column {
			c := sqlmini.Column{Name: r.String(), Type: sqlmini.ColType(r.Byte()), AutoInc: r.Bool()}
			if c.Type < sqlmini.IntCol || c.Type > sqlmini.TextCol {
				r.Failf("table %q column %q has unknown type %d", name, c.Name, c.Type)
			}
			return c
		})
		if len(cols) == 0 {
			r.Failf("table %q has no columns", name)
		}
		nextAuto := r.Int()
		// A row is one value per column, each at least its tag byte.
		rows := make([][]sqlmini.Val, r.Len(max(len(cols), 1)))
		for k := range rows {
			rows[k] = make([]sqlmini.Val, len(cols))
			for j := range rows[k] {
				switch tag := r.Byte(); tag {
				case sqlNull:
				case sqlInt:
					rows[k][j] = r.Int()
				case sqlFloat:
					rows[k][j] = math.Float64frombits(r.Uint())
				case sqlText:
					rows[k][j] = r.String()
				default:
					r.Failf("table %q row %d: unknown SQL value tag %d", name, k, tag)
				}
			}
		}
		t, err := sqlmini.NewTable(name, cols, rows, nextAuto)
		if err != nil {
			r.Failf("%v", err)
			t = &sqlmini.Table{Name: name}
		}
		out.Tables = append(out.Tables, t)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("object: decode snapshot: %w", err)
	}
	return out, nil
}
