package types

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary encoding of values, rows, and schemas. The format is
// self-describing and stable; it backs the command log, snapshot files,
// and the simulated PE/EE boundary, so changing it invalidates on-disk
// state.
//
//	value  := kind:u8 payload
//	payload(int|ts|bool) := varint
//	payload(float)       := u64 (IEEE-754 bits, little-endian)
//	payload(text)        := uvarint-len bytes
//	row    := uvarint-count value*
//	schema := uvarint-count (uvarint-len name-bytes kind:u8)*

// EncodeValue appends the binary encoding of v to buf. It is on the
// hot path of every log append and wire frame; with spare capacity in
// buf it does not touch the allocator.
//
//sstore:nomalloc
func EncodeValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt, KindTimestamp, KindBool:
		buf = binary.AppendVarint(buf, v.i)
	case KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.f))
	case KindText:
		buf = binary.AppendUvarint(buf, uint64(len(v.s)))
		buf = append(buf, v.s...)
	}
	return buf
}

// DecodeValue decodes one value from b, returning it and the number of
// bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Null, 0, io.ErrUnexpectedEOF
	}
	kind := Kind(b[0])
	n := 1
	switch kind {
	case KindNull:
		return Null, n, nil
	case KindInt, KindTimestamp, KindBool:
		i, m := binary.Varint(b[n:])
		if m <= 0 {
			return Null, 0, fmt.Errorf("types: truncated %s value", kind)
		}
		return Value{kind: kind, i: i}, n + m, nil
	case KindFloat:
		if len(b) < n+8 {
			return Null, 0, fmt.Errorf("types: truncated float value")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(b[n:]))
		return NewFloat(f), n + 8, nil
	case KindText:
		l, m := binary.Uvarint(b[n:])
		if m <= 0 {
			return Null, 0, fmt.Errorf("types: truncated text length")
		}
		n += m
		if uint64(len(b)-n) < l {
			return Null, 0, fmt.Errorf("types: truncated text value")
		}
		return NewText(string(b[n : n+int(l)])), n + int(l), nil
	default:
		return Null, 0, fmt.Errorf("types: invalid value kind %d", b[0])
	}
}

// EncodeRow appends the binary encoding of row to buf.
//
//sstore:nomalloc
func EncodeRow(buf []byte, row Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	for _, v := range row {
		buf = EncodeValue(buf, v)
	}
	return buf
}

// DecodeRow decodes one row from b, returning it and the bytes consumed.
func DecodeRow(b []byte) (Row, int, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, fmt.Errorf("types: truncated row count")
	}
	row := make(Row, 0, count)
	for i := uint64(0); i < count; i++ {
		v, m, err := DecodeValue(b[n:])
		if err != nil {
			return nil, 0, fmt.Errorf("types: row value %d: %w", i, err)
		}
		row = append(row, v)
		n += m
	}
	return row, n, nil
}
