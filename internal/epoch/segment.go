// Package epoch is the durable serving pipeline: it streams the
// collector's trace and the executor's reports into checksummed,
// append-only log segments, seals serving periods ("epochs") behind
// content-addressed manifests, and audits sealed epochs in the
// background while serving continues (§4.1, §5 deployment model, made
// continuous).
//
// Layout of an epoch directory tree:
//
//	<dir>/
//	  epoch-000001/
//	    seg-000001.seg   finalized log segment (live epoch only: sealing
//	    seg-000002.open  moves segments into cas/; an active segment may
//	                     carry a torn tail until then)
//	    MANIFEST.json    seal record: chunk refs and digests of every
//	                     artifact (segments, reports, the trusted init
//	                     snapshot in epoch 1) + chain link
//	    COMPACTED.json   retention compaction marker (see GC)
//	  epoch-000002/
//	    ...
//	  cas/               chunk store: every sealed artifact and every
//	                     checkpoint, by chunk digest
//	  checkpoints/
//	    epoch-000001.json verified final snapshot, as a list of chunk
//	                     refs into cas/ (written by the auditor or the
//	                     fleet coordinator)
//	  decisions.jsonl    the verdict ledger
//
// An epoch is sealed exactly when its MANIFEST.json exists; the manifest
// pins every artifact by SHA-256 and links to the previous epoch's
// manifest digest, forming a hash chain over the whole serving history.
// Its "version" is the chain's format generation (ManifestVersion).
package epoch

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Segment file format. A segment is a magic header followed by records:
//
//	header  = "OSG1"
//	record  = u32le payloadLen | u8 recordType | payload | u32le crc
//	crc     = CRC-32C over recordType || payload
//
// Records are length-prefixed so a torn tail is found without decoding
// payloads, and CRC-checksummed so a torn or corrupted tail is detected
// at the exact record where the damage starts. recEvents is the only
// record type; a reader refuses any other.
const (
	segMagic = "OSG1"

	// recEvents frames a batch of trace events, written by the
	// segment's trace.Encoder (gzipped): the batch's response bodies
	// are indices into a table that runs across the segment's records.
	recEvents byte = 1

	// recHeaderLen is payload length (4) + record type (1).
	recHeaderLen = 5
	// recTrailerLen is the CRC (4).
	recTrailerLen = 4

	// maxRecordPayload bounds a single record so a corrupted length
	// prefix cannot trigger a giant allocation.
	maxRecordPayload = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// record is one parsed segment record.
type record struct {
	typ     byte
	payload []byte
}

// appendRecord serializes one record into buf and returns the result.
func appendRecord(buf []byte, typ byte, payload []byte) []byte {
	var hdr [recHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	crc := crc32.Update(0, crcTable, hdr[4:5])
	crc = crc32.Update(crc, crcTable, payload)
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	var tr [recTrailerLen]byte
	binary.LittleEndian.PutUint32(tr[:], crc)
	return append(buf, tr[:]...)
}

// parseSegment reads the records of a segment held in data. In strict
// mode any damage — bad magic, torn record, CRC mismatch, trailing
// junk — is an error: that is the contract for finalized, sealed
// segments. In lenient mode parsing stops at the first damaged byte and
// returns the records of the valid prefix plus its length; that is the
// recovery contract for a segment that was active during a crash.
func parseSegment(data []byte, strict bool) (recs []record, validLen int64, err error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil, 0, fmt.Errorf("epoch: segment missing %q magic", segMagic)
	}
	off := int64(len(segMagic))
	for int64(len(data)) > off {
		rest := data[off:]
		if len(rest) < recHeaderLen+recTrailerLen {
			if strict {
				return nil, off, fmt.Errorf("epoch: segment truncated mid-record at offset %d", off)
			}
			return recs, off, nil
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		if n > maxRecordPayload {
			if strict {
				return nil, off, fmt.Errorf("epoch: implausible record length %d at offset %d", n, off)
			}
			return recs, off, nil
		}
		total := int64(recHeaderLen) + int64(n) + int64(recTrailerLen)
		if int64(len(rest)) < total {
			if strict {
				return nil, off, fmt.Errorf("epoch: segment truncated mid-record at offset %d", off)
			}
			return recs, off, nil
		}
		payload := rest[recHeaderLen : recHeaderLen+int64(n)]
		want := binary.LittleEndian.Uint32(rest[total-recTrailerLen : total])
		crc := crc32.Update(0, crcTable, rest[4:5])
		crc = crc32.Update(crc, crcTable, payload)
		if crc != want {
			if strict {
				return nil, off, fmt.Errorf("epoch: CRC mismatch in record at offset %d", off)
			}
			return recs, off, nil
		}
		recs = append(recs, record{typ: rest[4], payload: payload})
		off += total
	}
	return recs, off, nil
}

// encodeRecord is appendRecord into a fresh buffer.
func encodeRecord(typ byte, payload []byte) []byte {
	buf := make([]byte, 0, recHeaderLen+len(payload)+recTrailerLen)
	return appendRecord(buf, typ, payload)
}
