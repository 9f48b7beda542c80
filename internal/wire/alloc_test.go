package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"sstore/internal/types"
)

// The //sstore:allocgate markers below pair with //sstore:nomalloc
// annotations; the allocgate analyzer fails the build if either side
// exists without the other.

//sstore:allocgate appendString
func TestAppendStringAllocFree(t *testing.T) {
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(1000, func() {
		buf = appendString(buf[:0], "sp_ingest")
	}); n != 0 {
		t.Fatalf("appendString allocates %v/op with spare capacity; it encodes every request and response", n)
	}
}

//sstore:allocgate ReadFrameBuf
func TestReadFrameBufAllocFree(t *testing.T) {
	frame := AppendRequest(nil, &Request{ID: 7, Op: OpStats})
	rd := bytes.NewReader(frame)
	br := bufio.NewReader(rd)
	scratch := make([]byte, 0, len(frame))
	if n := testing.AllocsPerRun(1000, func() {
		rd.Reset(frame)
		br.Reset(rd)
		payload, err := ReadFrameBuf(br, scratch)
		if err != nil {
			t.Fatal(err)
		}
		scratch = payload
	}); n != 0 {
		t.Fatalf("ReadFrameBuf allocates %v/op over a warm scratch buffer; the conn loops call it per frame", n)
	}
}

// TestAppendRequestAllocFree: framing an ingest request into a warm
// buffer allocates nothing; the client encodes every batch through it.
func TestAppendRequestAllocFree(t *testing.T) {
	req := &Request{ID: 9, Op: OpIngest, Stream: "s1", BatchID: 3,
		Rows: []types.Row{{types.NewInt(1)}, {types.NewInt(2)}}}
	buf := AppendRequest(nil, req)
	if n := testing.AllocsPerRun(1000, func() {
		buf = AppendRequest(buf[:0], req)
	}); n != 0 {
		t.Fatalf("AppendRequest allocates %v/op into a warm buffer; the client frames every batch through it", n)
	}
}

//sstore:allocgate decoder.byte
//sstore:allocgate decoder.uvarint
//sstore:allocgate decoder.varint
func TestDecoderPrimitivesAllocFree(t *testing.T) {
	var payload []byte
	payload = append(payload, 7)
	payload = binary.AppendUvarint(payload, 123456)
	payload = binary.AppendVarint(payload, -987654)
	if n := testing.AllocsPerRun(1000, func() {
		d := decoder{buf: payload}
		if d.byte() != 7 || d.uvarint() != 123456 || d.varint() != -987654 || d.err != nil {
			panic("decoder round-trip broke")
		}
	}); n != 0 {
		t.Fatalf("decoder primitives allocate %v/op on the valid path", n)
	}
}
