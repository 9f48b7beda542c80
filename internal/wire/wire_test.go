package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"sstore/internal/types"
)

// roundTripReq frames r, reads the frame back, and decodes it.
func roundTripReq(t *testing.T, r *Request) *Request {
	t.Helper()
	buf := AppendRequest(nil, r)
	payload, err := ReadFrameBuf(bufio.NewReader(bytes.NewReader(buf)), nil)
	if err != nil {
		t.Fatalf("ReadFrameBuf: %v", err)
	}
	got, err := DecodeRequest(payload)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	return got
}

func roundTripResp(t *testing.T, r *Response) *Response {
	t.Helper()
	buf := AppendResponse(nil, r)
	payload, err := ReadFrameBuf(bufio.NewReader(bytes.NewReader(buf)), nil)
	if err != nil {
		t.Fatalf("ReadFrameBuf: %v", err)
	}
	got, err := DecodeResponse(payload)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	return got
}

func TestCallRequestRoundTrip(t *testing.T) {
	in := &Request{
		ID:     42,
		Op:     OpCall,
		SP:     "Report",
		Params: types.Row{types.NewInt(7), types.NewText("x"), types.Null},
	}
	got := roundTripReq(t, in)
	if got.ID != in.ID || got.Op != in.Op || got.SP != in.SP || !got.Params.Equal(in.Params) {
		t.Errorf("round trip mangled request: %+v → %+v", in, got)
	}
}

func TestIngestRequestRoundTrip(t *testing.T) {
	in := &Request{
		ID:      1,
		Op:      OpIngest,
		Stream:  "raw_readings",
		BatchID: 99,
		Rows: []types.Row{
			{types.NewInt(1), types.NewInt(20)},
			{types.NewInt(1), types.NewFloat(2.5)},
		},
	}
	got := roundTripReq(t, in)
	if got.Stream != in.Stream || got.BatchID != in.BatchID || len(got.Rows) != 2 {
		t.Fatalf("round trip mangled request: %+v → %+v", in, got)
	}
	for i := range in.Rows {
		if !got.Rows[i].Equal(in.Rows[i]) {
			t.Errorf("row %d: %v → %v", i, in.Rows[i], got.Rows[i])
		}
	}
}

func TestEmptyBodyRequests(t *testing.T) {
	for _, op := range []uint8{OpStats, OpDrain} {
		got := roundTripReq(t, &Request{ID: 5, Op: op})
		if got.ID != 5 || got.Op != op {
			t.Errorf("op %d: got %+v", op, got)
		}
	}
}

func TestCallResponseRoundTrip(t *testing.T) {
	in := &Response{
		ID:      42,
		Op:      OpCall,
		Status:  StatusOK,
		Columns: []string{"sensor", "avg"},
		Rows: []types.Row{
			{types.NewInt(1), types.NewInt(21)},
		},
		LastInsertBatch: 7,
	}
	got := roundTripResp(t, in)
	if got.ID != in.ID || got.Status != StatusOK || len(got.Columns) != 2 ||
		got.Columns[1] != "avg" || len(got.Rows) != 1 || !got.Rows[0].Equal(in.Rows[0]) ||
		got.LastInsertBatch != 7 {
		t.Errorf("round trip mangled response: %+v → %+v", in, got)
	}
}

func TestErrorAndOverloadedResponses(t *testing.T) {
	e := roundTripResp(t, &Response{ID: 9, Op: OpIngest, Status: StatusErr, Msg: "boom"})
	if e.Status != StatusErr || e.Msg != "boom" {
		t.Errorf("error response: %+v", e)
	}
	o := roundTripResp(t, &Response{
		ID: 10, Op: OpIngest, Status: StatusOverloaded,
		Partition: 3, Depth: 128, RetryAfterMicros: 2500,
	})
	if o.Partition != 3 || o.Depth != 128 || o.RetryAfterMicros != 2500 {
		t.Errorf("overloaded response: %+v", o)
	}
}

func TestStatsResponseRoundTrip(t *testing.T) {
	in := &Response{
		ID: 2, Op: OpStats, Status: StatusOK,
		Stats: Stats{Executed: 100, Aborted: 3, LogAppends: 50, Overloaded: 7},
	}
	got := roundTripResp(t, in)
	if got.Stats != in.Stats {
		t.Errorf("stats: %+v → %+v", in.Stats, got.Stats)
	}
}

func TestPipelinedFrames(t *testing.T) {
	var buf []byte
	for i := 1; i <= 3; i++ {
		buf = AppendRequest(buf, &Request{ID: uint64(i), Op: OpDrain})
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	for i := 1; i <= 3; i++ {
		payload, err := ReadFrameBuf(br, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		req, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if req.ID != uint64(i) {
			t.Errorf("frame %d: id %d", i, req.ID)
		}
	}
	if _, err := ReadFrameBuf(br, nil); err != io.EOF {
		t.Errorf("after last frame: %v, want io.EOF", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	buf := AppendRequest(nil, &Request{ID: 1, Op: OpCall, SP: "X"})
	_, err := ReadFrameBuf(bufio.NewReader(bytes.NewReader(buf[:len(buf)-2])), nil)
	if err != io.ErrUnexpectedEOF {
		t.Errorf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrameBuf(bufio.NewReader(bytes.NewReader(hdr)), nil); err == nil {
		t.Error("oversize frame accepted")
	}
}

func TestCorruptPayloadRejected(t *testing.T) {
	if _, err := DecodeRequest([]byte{1, 99}); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := DecodeRequest([]byte{}); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := DecodeResponse([]byte{1, byte(OpCall), 77}); err == nil {
		t.Error("unknown status accepted")
	}
}

func TestQueryRequestRoundTrip(t *testing.T) {
	in := &Request{
		ID:        9,
		Op:        OpQuery,
		Partition: 3,
		SQL:       "SELECT COUNT(*) FROM w WHERE v = ?",
		Params:    types.Row{types.NewInt(7)},
	}
	got := roundTripReq(t, in)
	if got.ID != in.ID || got.Op != in.Op || got.Partition != in.Partition ||
		got.SQL != in.SQL || !got.Params.Equal(in.Params) {
		t.Errorf("round trip mangled query request: %+v → %+v", in, got)
	}
}

func TestQueryResponseRoundTrip(t *testing.T) {
	in := &Response{
		ID:      9,
		Op:      OpQuery,
		Status:  StatusOK,
		Columns: []string{"count", "sum"},
		Rows:    []types.Row{{types.NewInt(4), types.NewFloat(2.5)}},
	}
	got := roundTripResp(t, in)
	if got.ID != in.ID || got.Op != in.Op || got.Status != in.Status {
		t.Errorf("header mangled: %+v", got)
	}
	if len(got.Columns) != 2 || got.Columns[0] != "count" || got.Columns[1] != "sum" {
		t.Errorf("columns mangled: %v", got.Columns)
	}
	if len(got.Rows) != 1 || !got.Rows[0].Equal(in.Rows[0]) {
		t.Errorf("rows mangled: %v", got.Rows)
	}
}

func TestQueryErrorResponseRoundTrip(t *testing.T) {
	in := &Response{ID: 2, Op: OpQuery, Status: StatusErr, Msg: "ee: statement is not read-only"}
	got := roundTripResp(t, in)
	if got.Status != StatusErr || got.Msg != in.Msg {
		t.Errorf("error response mangled: %+v", got)
	}
}

func TestHandoffRequestRoundTrip(t *testing.T) {
	in := &Request{
		ID:        77,
		Op:        OpHandoff,
		From:      1,
		Partition: 5,
		Stream:    "scale_jobs",
		BatchID:   1234,
		Rows: []types.Row{
			{types.NewInt(5), types.NewInt(10)},
			{types.NewInt(5), types.NewInt(11)},
		},
	}
	got := roundTripReq(t, in)
	if got.ID != in.ID || got.Op != in.Op || got.From != 1 || got.Partition != 5 ||
		got.Stream != in.Stream || got.BatchID != 1234 || len(got.Rows) != 2 {
		t.Fatalf("round trip mangled handoff: %+v → %+v", in, got)
	}
	for i := range in.Rows {
		if !got.Rows[i].Equal(in.Rows[i]) {
			t.Errorf("row %d: %v → %v", i, in.Rows[i], got.Rows[i])
		}
	}
}

func TestHandoffResponseRoundTrip(t *testing.T) {
	ok := roundTripResp(t, &Response{ID: 77, Op: OpHandoff, Status: StatusOK, BatchID: 1234})
	if ok.BatchID != 1234 || ok.Duplicate {
		t.Errorf("handoff ok: %+v", ok)
	}
	dup := roundTripResp(t, &Response{ID: 78, Op: OpHandoff, Status: StatusOK, BatchID: 1234, Duplicate: true})
	if !dup.Duplicate {
		t.Errorf("handoff dup flag lost: %+v", dup)
	}
}

func TestHandoffPullRoundTrip(t *testing.T) {
	got := roundTripReq(t, &Request{ID: 3, Op: OpHandoffPull, Node: 2})
	if got.Op != OpHandoffPull || got.Node != 2 {
		t.Errorf("handoff pull: %+v", got)
	}
	ok := roundTripResp(t, &Response{ID: 3, Op: OpHandoffPull, Status: StatusOK})
	if ok.Status != StatusOK {
		t.Errorf("handoff pull response: %+v", ok)
	}
}

func TestStatsHandoffFieldsRoundTrip(t *testing.T) {
	in := &Response{
		ID: 2, Op: OpStats, Status: StatusOK,
		Stats: Stats{Executed: 1, HandoffsSent: 10, HandoffsRecv: 9, HandoffsDup: 2, HandoffsPending: 1},
	}
	got := roundTripResp(t, in)
	if got.Stats != in.Stats {
		t.Errorf("stats: %+v → %+v", in.Stats, got.Stats)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	buf := AppendHello(nil)
	if len(buf) != HelloSize {
		t.Fatalf("hello size %d, want %d", len(buf), HelloSize)
	}
	if err := ReadHello(bufio.NewReader(bytes.NewReader(buf))); err != nil {
		t.Fatalf("ReadHello: %v", err)
	}
}

func TestHelloRejectsBadMagic(t *testing.T) {
	err := ReadHello(bufio.NewReader(bytes.NewReader([]byte("GET / HTTP/1.1\r\n"))))
	if err == nil {
		t.Fatal("foreign protocol accepted")
	}
}

func TestHelloRejectsVersionMismatch(t *testing.T) {
	buf := append([]byte(Magic), ProtocolVersion+1)
	err := ReadHello(bufio.NewReader(bytes.NewReader(buf)))
	if err == nil {
		t.Fatal("version mismatch accepted")
	}
}

func TestHelloTruncated(t *testing.T) {
	if err := ReadHello(bufio.NewReader(bytes.NewReader([]byte("SS")))); err == nil {
		t.Fatal("truncated hello accepted")
	}
}
