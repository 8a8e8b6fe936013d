package object

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"sort"
	"strconv"

	"orochi/internal/encio"

	"orochi/internal/lang"
	"orochi/internal/sqlmini"
)

// snapshotWire is the gob shape of a Snapshot: language and SQL values
// travel as tagged strings so no interface registration is needed.
// Registers and KV are key-sorted pair lists, not maps — gob walks a
// map in whatever order the runtime does, and the raw form must be a
// function of the state alone: the fleet hands snapshots off as
// content-addressed chunks, so the same state has to cut to the same
// chunks on every worker and from one epoch to the next.
type snapshotWire struct {
	Registers []pairWire
	KV        []pairWire
	Tables    []tableWire
}

type pairWire struct {
	Key string
	Val string
}

type tableWire struct {
	Name     string
	Cols     []sqlmini.Column
	NextAuto int64
	Rows     [][]string
}

func sortedPairs(m map[string]lang.Value) []pairWire {
	out := make([]pairWire, 0, len(m))
	for k, v := range m {
		out = append(out, pairWire{Key: k, Val: lang.EncodeValue(v)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// EncodeRaw serializes the snapshot with gob, uncompressed — the
// logical form the content-addressed store chunks (compression moves
// down to the chunk layer). The bytes are canonical: registers and KV
// pairs in key order, tables in name order (rows keep their order,
// which is state), so equal states encode to equal bytes.
func (s *Snapshot) EncodeRaw() ([]byte, error) {
	wire := snapshotWire{
		Registers: sortedPairs(s.Registers),
		KV:        sortedPairs(s.KV),
		Tables:    make([]tableWire, 0, len(s.Tables)),
	}
	tables := append([]*sqlmini.Table(nil), s.Tables...)
	sort.SliceStable(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	for _, t := range tables {
		tw := tableWire{Name: t.Name, Cols: t.Cols, NextAuto: t.NextAuto, Rows: make([][]string, len(t.Rows))}
		for r, row := range t.Rows {
			enc := make([]string, len(row))
			for i, v := range row {
				enc[i] = encodeSQLVal(v)
			}
			tw.Rows[r] = enc
		}
		wire.Tables = append(wire.Tables, tw)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return nil, fmt.Errorf("object: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Encode serializes the snapshot (gob+gzip).
func (s *Snapshot) Encode() ([]byte, error) {
	raw, err := s.EncodeRaw()
	if err != nil {
		return nil, err
	}
	data, err := encio.Gzip(raw)
	if err != nil {
		return nil, fmt.Errorf("object: encode snapshot: %w", err)
	}
	return data, nil
}

// DecodeSnapshotRaw deserializes a snapshot produced by EncodeRaw.
// Trailing garbage is an error, matching DecodeSnapshot's strictness.
func DecodeSnapshotRaw(data []byte) (*Snapshot, error) {
	br := bytes.NewReader(data)
	var wire snapshotWire
	if err := gob.NewDecoder(br).Decode(&wire); err != nil {
		return nil, fmt.Errorf("object: decode snapshot: %w", err)
	}
	if err := encio.ExpectEOF(br); err != nil {
		return nil, fmt.Errorf("object: decode snapshot: %w", err)
	}
	return decodeSnapshotWire(&wire)
}

// DecodeSnapshot deserializes a snapshot produced by Encode. Truncated
// input and trailing garbage are errors, so corrupted on-disk state can
// never load silently as a shortened snapshot.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	raw, err := encio.Gunzip(data)
	if err != nil {
		return nil, fmt.Errorf("object: decode snapshot: %w", err)
	}
	return DecodeSnapshotRaw(raw)
}

func decodeSnapshotWire(wire *snapshotWire) (*Snapshot, error) {
	out := &Snapshot{}
	var err error
	if out.Registers, err = decodePairs("register", wire.Registers); err != nil {
		return nil, err
	}
	if out.KV, err = decodePairs("kv", wire.KV); err != nil {
		return nil, err
	}
	for _, tw := range wire.Tables {
		rows := make([][]sqlmini.Val, len(tw.Rows))
		for i, enc := range tw.Rows {
			row := make([]sqlmini.Val, len(enc))
			for j, e := range enc {
				v, err := decodeSQLVal(e)
				if err != nil {
					return nil, err
				}
				row[j] = v
			}
			rows[i] = row
		}
		t, err := sqlmini.NewTable(tw.Name, tw.Cols, rows, tw.NextAuto)
		if err != nil {
			return nil, err
		}
		out.Tables = append(out.Tables, t)
	}
	return out, nil
}

// decodePairs rebuilds one map from its pair list. Keys must ascend
// strictly, as EncodeRaw writes them: a repeated key would otherwise
// load as whichever copy came last.
func decodePairs(kind string, pairs []pairWire) (map[string]lang.Value, error) {
	out := make(map[string]lang.Value, len(pairs))
	for i, p := range pairs {
		if i > 0 && pairs[i-1].Key >= p.Key {
			return nil, fmt.Errorf("object: decode snapshot: %s keys out of order at %q", kind, p.Key)
		}
		v, err := lang.DecodeValue(p.Val)
		if err != nil {
			return nil, err
		}
		out[p.Key] = v
	}
	return out, nil
}

// WriteFile stores the snapshot at path.
func (s *Snapshot) WriteFile(path string) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadSnapshotFile loads a snapshot stored by WriteFile.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(data)
}

func encodeSQLVal(v sqlmini.Val) string {
	switch x := v.(type) {
	case nil:
		return "n"
	case int64:
		return "i" + strconv.FormatInt(x, 10)
	case float64:
		return "f" + strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return "s" + x
	default:
		return "s" + fmt.Sprintf("%v", v)
	}
}

func decodeSQLVal(e string) (sqlmini.Val, error) {
	if e == "" {
		return nil, fmt.Errorf("object: empty encoded SQL value")
	}
	body := e[1:]
	switch e[0] {
	case 'n':
		return nil, nil
	case 'i':
		n, err := strconv.ParseInt(body, 10, 64)
		if err != nil {
			return nil, err
		}
		return n, nil
	case 'f':
		f, err := strconv.ParseFloat(body, 64)
		if err != nil {
			return nil, err
		}
		return f, nil
	case 's':
		return body, nil
	default:
		return nil, fmt.Errorf("object: bad SQL value tag %q", e[0])
	}
}
