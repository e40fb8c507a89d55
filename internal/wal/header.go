package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"asap/internal/arch"
)

// Header line layout (one 64 B cache line, Figure 5a, extended with the
// integrity fields crash recovery validates):
//
//	bytes 0..7   RID (little endian)
//	byte  8      magic (0xA5) — lets recovery skip never-written lines
//	byte  9      entry count (1..7)
//	bytes 10..13 header CRC-32 (IEEE, little endian) over the whole line
//	             with these four bytes zeroed
//	bytes 14..15 reserved, must be zero
//	bytes 16+6i  data line address >> LineShift, 6 bytes little endian,
//	             for i in [0, count); the rest zero
//	bytes 58..61 payload CRC-32 over the record's data-entry lines in
//	             order, when flagPayloadCRC is set
//	byte  62     flags (bit 0: payload CRC present; others must be zero)
//	byte  63     reserved, must be zero
//
// The record's data-entry lines are contiguous after the header
// (EntryLine), so log entry addresses need not be stored.
const headerMagic = 0xA5

const (
	crcOff         = 10 // header CRC-32, bytes 10..13
	payloadCRCOff  = 58 // payload CRC-32, bytes 58..61
	flagsOff       = 62
	flagPayloadCRC = 1 << 0
)

// Validation failures ParseHeader distinguishes so recovery can classify a
// corrupt line. ErrNotHeader means the line is not header material at all
// (never written, or a data entry); every other error means the line
// carries the header magic but fails validation — a torn write, a media
// error, or garbage that happens to contain 0xA5 at byte 8.
var (
	ErrShortLine = errors.New("wal: line shorter than a header")
	ErrNotHeader = errors.New("wal: header magic absent")
	ErrBadCount  = errors.New("wal: header entry count out of range")
	ErrBadRID    = errors.New("wal: header RID is the reserved no-region value")
	ErrReserved  = errors.New("wal: reserved header bytes nonzero")
	ErrChecksum  = errors.New("wal: header checksum mismatch")
)

// Header is a fully parsed, validated log record header.
type Header struct {
	RID       arch.RID
	DataLines []arch.LineAddr
	// PayloadCRC is the CRC-32 over the record's data-entry lines in
	// order; only meaningful when HasPayloadCRC is set (the ASAP engine
	// always sets it; baseline schemes write headers without it).
	PayloadCRC    uint32
	HasPayloadCRC bool
}

// Checksum is the CRC-32 (IEEE) both the header line and record payloads
// are protected with.
func Checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// ChecksumUpdate extends a running payload checksum with the next entry's
// bytes.
func ChecksumUpdate(crc uint32, b []byte) uint32 {
	return crc32.Update(crc, crc32.IEEETable, b)
}

// EncodeHeader serializes a header line for region rid covering the given
// data lines (at most RecordEntries). The header CRC is always present;
// use EncodeHeaderChecked to also protect the record's payload bytes.
func EncodeHeader(rid arch.RID, dataLines []arch.LineAddr) []byte {
	return encodeHeader(rid, dataLines, 0, false)
}

// EncodeHeaderChecked is EncodeHeader plus the payload CRC over the
// record's data-entry lines (in allocation order), letting recovery detect
// torn or bit-flipped log entries.
func EncodeHeaderChecked(rid arch.RID, dataLines []arch.LineAddr, payloadCRC uint32) []byte {
	return encodeHeader(rid, dataLines, payloadCRC, true)
}

func encodeHeader(rid arch.RID, dataLines []arch.LineAddr, payloadCRC uint32, hasPayload bool) []byte {
	if len(dataLines) > RecordEntries {
		panic("wal: too many entries for one record")
	}
	buf := make([]byte, arch.LineSize)
	binary.LittleEndian.PutUint64(buf[0:8], uint64(rid))
	buf[8] = headerMagic
	buf[9] = byte(len(dataLines))
	for i, dl := range dataLines {
		putUint48(buf[16+6*i:], uint64(dl)>>arch.LineShift)
	}
	if hasPayload {
		binary.LittleEndian.PutUint32(buf[payloadCRCOff:], payloadCRC)
		buf[flagsOff] = flagPayloadCRC
	}
	binary.LittleEndian.PutUint32(buf[crcOff:], headerChecksum(buf))
	return buf
}

// headerChecksum computes the header CRC over the line with the CRC field
// itself zeroed.
func headerChecksum(line []byte) uint32 {
	var scratch [arch.LineSize]byte
	copy(scratch[:], line[:arch.LineSize])
	scratch[crcOff], scratch[crcOff+1], scratch[crcOff+2], scratch[crcOff+3] = 0, 0, 0, 0
	return crc32.ChecksumIEEE(scratch[:])
}

// ParseHeader validates and decodes a persisted header line. A line
// without the magic byte returns ErrNotHeader (it is simply not a header);
// any other error means the line claims to be a header but is corrupt.
func ParseHeader(line []byte) (*Header, error) {
	if len(line) < arch.LineSize {
		return nil, ErrShortLine
	}
	if line[8] != headerMagic {
		return nil, ErrNotHeader
	}
	if line[14] != 0 || line[15] != 0 || line[flagsOff]&^flagPayloadCRC != 0 || line[63] != 0 {
		return nil, ErrReserved
	}
	if got, want := binary.LittleEndian.Uint32(line[crcOff:]), headerChecksum(line); got != want {
		return nil, ErrChecksum
	}
	count := int(line[9])
	if count < 1 || count > RecordEntries {
		return nil, ErrBadCount
	}
	rid := arch.RID(binary.LittleEndian.Uint64(line[0:8]))
	if rid == arch.NoRID {
		return nil, ErrBadRID
	}
	h := &Header{RID: rid}
	for i := 0; i < count; i++ {
		h.DataLines = append(h.DataLines, arch.LineAddr(getUint48(line[16+6*i:])<<arch.LineShift))
	}
	if line[flagsOff]&flagPayloadCRC != 0 {
		h.HasPayloadCRC = true
		h.PayloadCRC = binary.LittleEndian.Uint32(line[payloadCRCOff:])
	}
	return h, nil
}

// DecodeHeaderLegacy is the pre-checksum decode — magic and count checks
// only. It exists so the crash-consistency checker can run recovery with
// validation deliberately disabled and demonstrate that the checker
// catches the corruption the checksums would have rejected.
func DecodeHeaderLegacy(line []byte) (rid arch.RID, dataLines []arch.LineAddr, ok bool) {
	if len(line) < arch.LineSize || line[8] != headerMagic {
		return 0, nil, false
	}
	count := int(line[9])
	if count < 1 || count > RecordEntries {
		return 0, nil, false
	}
	rid = arch.RID(binary.LittleEndian.Uint64(line[0:8]))
	if rid == arch.NoRID {
		return 0, nil, false
	}
	for i := 0; i < count; i++ {
		dataLines = append(dataLines, arch.LineAddr(getUint48(line[16+6*i:])<<arch.LineShift))
	}
	return rid, dataLines, true
}

// LiveRecordSlots enumerates the header line addresses of every record
// slot allocated but not yet freed in a log buffer, mirroring
// AllocRecord's wrap-skip rule. Recovery uses it to know which slots must
// hold (or be covered by) valid undo material: head and tail are the
// absolute LogHead/LogTail offsets captured at the crash. Malformed
// inputs yield nil rather than a runaway scan.
func LiveRecordSlots(base, size, head, tail uint64) []arch.LineAddr {
	if size == 0 || tail < head || tail-head > size {
		return nil
	}
	var out []arch.LineAddr
	for off := head; off < tail; {
		pos := off % size
		if rem := size - pos; rem < RecordBytes {
			off += rem // AllocRecord skipped the wrap remainder
			continue
		}
		out = append(out, arch.LineAddr(base+pos))
		off += RecordBytes
	}
	return out
}

func putUint48(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
}

func getUint48(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 |
		uint64(b[3])<<24 | uint64(b[4])<<32 | uint64(b[5])<<40
}
