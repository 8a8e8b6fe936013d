package object

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"strconv"

	"orochi/internal/encio"

	"orochi/internal/lang"
	"orochi/internal/sqlmini"
)

// snapshotWire is the gob shape of a Snapshot: language and SQL values
// travel as tagged strings so no interface registration is needed.
type snapshotWire struct {
	Registers map[string]string
	KV        map[string]string
	Tables    []tableWire
}

type tableWire struct {
	Name     string
	Cols     []sqlmini.Column
	NextAuto int64
	Rows     [][]string
}

// EncodeRaw serializes the snapshot with gob, uncompressed — the
// logical form the content-addressed store chunks (compression moves
// down to the chunk layer).
func (s *Snapshot) EncodeRaw() ([]byte, error) {
	wire := snapshotWire{
		Registers: make(map[string]string, len(s.Registers)),
		KV:        make(map[string]string, len(s.KV)),
	}
	for k, v := range s.Registers {
		wire.Registers[k] = lang.EncodeValue(v)
	}
	for k, v := range s.KV {
		wire.KV[k] = lang.EncodeValue(v)
	}
	for _, t := range s.Tables {
		tw := tableWire{Name: t.Name, Cols: t.Cols, NextAuto: t.NextAuto}
		for _, row := range t.Rows {
			enc := make([]string, len(row))
			for i, v := range row {
				enc[i] = encodeSQLVal(v)
			}
			tw.Rows = append(tw.Rows, enc)
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
	out := &Snapshot{
		Registers: make(map[string]lang.Value, len(wire.Registers)),
		KV:        make(map[string]lang.Value, len(wire.KV)),
	}
	for k, enc := range wire.Registers {
		v, err := lang.DecodeValue(enc)
		if err != nil {
			return nil, err
		}
		out.Registers[k] = v
	}
	for k, enc := range wire.KV {
		v, err := lang.DecodeValue(enc)
		if err != nil {
			return nil, err
		}
		out.KV[k] = v
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
