// Package wire is the client↔server protocol of the network front
// door: a length-prefixed binary framing over TCP that reuses the
// repository's stable value encoding (internal/types, the same codec
// backing the command log and snapshots). The protocol is
// request/response with client-assigned request IDs, so a connection
// can pipeline many requests and receive their responses out of order
// — an ingest acknowledgement arrives when its border transaction
// commits, not when the server happens to read the next request.
//
// Handshake: each side writes a 5-byte hello — the 4-byte protocol
// magic "SSTR" plus a version byte — as its first bytes on a new
// connection, before any frame. A peer whose hello does not match is
// rejected with a descriptive error; the magic keeps frame parsing
// away from strangers probing the port, and the version byte lets
// mixed-version clusters fail fast instead of desynchronizing.
//
// Framing:
//
//	hello    := "SSTR", version:u8
//	frame    := u32-LE payload-len, payload
//	request  := uvarint req-id, op:u8, body
//	response := uvarint req-id, op:u8, status:u8, body
//
// Request bodies:
//
//	call        := uvarint sp-len, sp, row(params)
//	ingest      := uvarint stream-len, stream, varint batch-id,
//	               uvarint row-count, row*
//	query       := uvarint partition, uvarint sql-len, sql, row(params)
//	stats       := (empty)
//	drain       := (empty)
//	handoff     := uvarint from, uvarint target, ingest
//	handoffpull := uvarint node-id
//
// Response bodies:
//
//	ok+call      := uvarint col-count, (uvarint len, name)*,
//	                uvarint row-count, row*, varint last-batch
//	ok+query     := uvarint col-count, (uvarint len, name)*,
//	                uvarint row-count, row*
//	ok+ingest    := varint batch-id
//	ok+stats     := uvarint field-count, uvarint* (see Stats)
//	ok+drain     := (empty)
//	ok+handoff   := varint batch-id, dup:u8
//	ok+handoffpull := (empty)
//	error        := uvarint msg-len, msg
//	overloaded   := uvarint partition, uvarint depth,
//	                uvarint retry-after-micros
//
// OpHandoff is the inter-node transport of a relocated interior batch
// (DESIGN.md §13): the sending node's committing TE produced a batch
// whose routed partition lives on the receiving node. The body carries
// the batch rows plus the dedup identity (target partition, stream,
// batch ID) so the receiver's exactly-once ledger suppresses duplicate
// deliveries after a reconnect or crash replay; the OK response is the
// receiver's commit acknowledgement (dup=1 when the ledger had already
// admitted the batch). OpHandoffPull is sent by a restarted node to
// each peer: "re-deliver every hand-off addressed to me that you still
// hold unacknowledged".
//
// The overloaded status carries the engine's backpressure verdict
// across the wire: the request was rejected without side effects (an
// ingested batch's exactly-once admission is released server-side), so
// the client may retry the identical request after the hinted backoff,
// as long as it retries before admitting later batch IDs on the same
// stream and partition (see client.IngestRetry).
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"sstore/internal/types"
)

// Ops identify the request kind; echoed in the response so responses
// decode without tracking per-request context.
const (
	OpCall uint8 = iota + 1
	OpIngest
	OpStats
	OpDrain
	// OpQuery runs a read-only statement against a consistent snapshot
	// of one partition, served off the partition loop (the snapshot
	// read path): it never occupies a scheduler slot, so read traffic
	// does not steal streaming throughput and is never rejected by
	// queue-depth backpressure.
	OpQuery
	// OpHandoff moves a relocated interior batch to the node owning its
	// routed partition; the response acknowledges the receiver's commit.
	OpHandoff
	// OpHandoffPull asks a peer to re-deliver every unacknowledged
	// hand-off addressed to the requesting node (recovery re-request).
	OpHandoffPull
)

// Handshake: the protocol magic and version exchanged as each side's
// first bytes on a new connection.
const (
	// Magic opens every connection; four bytes so a misdirected HTTP or
	// TLS client fails immediately instead of being parsed as a frame.
	Magic = "SSTR"
	// ProtocolVersion is bumped on any incompatible framing or op
	// change; peers reject a mismatch at connection open.
	ProtocolVersion uint8 = 2
	// HelloSize is the handshake's wire size: magic + version byte.
	HelloSize = len(Magic) + 1
)

// AppendHello appends the protocol hello (magic + version).
func AppendHello(buf []byte) []byte {
	return append(append(buf, Magic...), ProtocolVersion)
}

// ReadHello consumes and validates a peer's hello, returning a
// descriptive error on a foreign protocol or version mismatch.
func ReadHello(br *bufio.Reader) error {
	var hello [5]byte
	_ = hello[HelloSize-1]
	for i := 0; i < HelloSize; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("wire: handshake: %w", err)
		}
		hello[i] = b
	}
	if string(hello[:len(Magic)]) != Magic {
		return fmt.Errorf("wire: handshake: bad magic %q (want %q): peer is not speaking the sstore protocol", hello[:len(Magic)], Magic)
	}
	if v := hello[len(Magic)]; v != ProtocolVersion {
		return fmt.Errorf("wire: handshake: protocol version %d, want %d: mixed-version peers cannot interoperate", v, ProtocolVersion)
	}
	return nil
}

// Response statuses.
const (
	StatusOK uint8 = iota
	StatusErr
	StatusOverloaded
)

// MaxFrame bounds a frame's payload; a peer announcing more is treated
// as a protocol error rather than an allocation request.
const MaxFrame = 64 << 20

// Stats mirrors the engine's counter snapshot across the wire. Fields
// are encoded as a counted list of uvarints, so decoders tolerate
// servers with more (or fewer) counters.
type Stats struct {
	Executed    uint64
	Aborted     uint64
	LogAppends  uint64
	LogSyncs    uint64
	ClientTrips uint64
	EECrossings uint64
	Overloaded  uint64
	// Cross-node hand-off counters (zero on single-node deployments).
	// HandoffsPending counts sent batches not yet acknowledged by their
	// receiving node — the cluster-drain signal: a cluster is quiescent
	// when every node reports Drain complete and zero pending.
	HandoffsSent    uint64
	HandoffsRecv    uint64
	HandoffsDup     uint64
	HandoffsPending uint64
}

// Request is one decoded client request.
type Request struct {
	ID uint64
	Op uint8

	// OpCall
	SP     string
	Params types.Row

	// OpIngest
	Stream  string
	BatchID int64
	Rows    []types.Row

	// OpQuery; OpHandoff reuses Partition as the target partition
	Partition int
	SQL       string // params travel in Params

	// OpHandoff: the sending partition. The batch identity and rows
	// travel in Stream/BatchID/Rows.
	From int

	// OpHandoffPull: the requesting node's ID.
	Node int
}

// Response is one decoded server response.
type Response struct {
	ID     uint64
	Op     uint8
	Status uint8

	// StatusOK, OpCall
	Columns         []string
	Rows            []types.Row
	LastInsertBatch int64

	// StatusOK, OpIngest (and OpHandoff, which adds Duplicate)
	BatchID int64

	// StatusOK, OpHandoff: the receiver's dedup ledger had already
	// admitted this batch — the delivery was a replay, applied zero
	// times more (exactly-once held).
	Duplicate bool

	// StatusOK, OpStats
	Stats Stats

	// StatusErr
	Msg string

	// StatusOverloaded
	Partition        int
	Depth            int
	RetryAfterMicros uint64
}

// AppendRequest appends r's framed encoding to buf.
func AppendRequest(buf []byte, r *Request) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	p := len(buf)
	buf = binary.AppendUvarint(buf, r.ID)
	buf = append(buf, r.Op)
	switch r.Op {
	case OpCall:
		buf = appendString(buf, r.SP)
		buf = types.EncodeRow(buf, r.Params)
	case OpIngest, OpHandoff:
		if r.Op == OpHandoff {
			buf = binary.AppendUvarint(buf, uint64(r.From))
			buf = binary.AppendUvarint(buf, uint64(r.Partition))
		}
		buf = appendString(buf, r.Stream)
		buf = binary.AppendVarint(buf, r.BatchID)
		buf = binary.AppendUvarint(buf, uint64(len(r.Rows)))
		for _, row := range r.Rows {
			buf = types.EncodeRow(buf, row)
		}
	case OpQuery:
		buf = binary.AppendUvarint(buf, uint64(r.Partition))
		buf = appendString(buf, r.SQL)
		buf = types.EncodeRow(buf, r.Params)
	case OpHandoffPull:
		buf = binary.AppendUvarint(buf, uint64(r.Node))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-p))
	return buf
}

// AppendResponse appends r's framed encoding to buf.
func AppendResponse(buf []byte, r *Response) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	p := len(buf)
	buf = binary.AppendUvarint(buf, r.ID)
	buf = append(buf, r.Op, r.Status)
	switch r.Status {
	case StatusErr:
		buf = appendString(buf, r.Msg)
	case StatusOverloaded:
		buf = binary.AppendUvarint(buf, uint64(r.Partition))
		buf = binary.AppendUvarint(buf, uint64(r.Depth))
		buf = binary.AppendUvarint(buf, r.RetryAfterMicros)
	case StatusOK:
		switch r.Op {
		case OpCall:
			buf = binary.AppendUvarint(buf, uint64(len(r.Columns)))
			for _, c := range r.Columns {
				buf = appendString(buf, c)
			}
			buf = binary.AppendUvarint(buf, uint64(len(r.Rows)))
			for _, row := range r.Rows {
				buf = types.EncodeRow(buf, row)
			}
			buf = binary.AppendVarint(buf, r.LastInsertBatch)
		case OpQuery:
			buf = binary.AppendUvarint(buf, uint64(len(r.Columns)))
			for _, c := range r.Columns {
				buf = appendString(buf, c)
			}
			buf = binary.AppendUvarint(buf, uint64(len(r.Rows)))
			for _, row := range r.Rows {
				buf = types.EncodeRow(buf, row)
			}
		case OpIngest:
			buf = binary.AppendVarint(buf, r.BatchID)
		case OpHandoff:
			buf = binary.AppendVarint(buf, r.BatchID)
			var dup uint8
			if r.Duplicate {
				dup = 1
			}
			buf = append(buf, dup)
		case OpStats:
			fields := []uint64{
				r.Stats.Executed, r.Stats.Aborted,
				r.Stats.LogAppends, r.Stats.LogSyncs,
				r.Stats.ClientTrips, r.Stats.EECrossings,
				r.Stats.Overloaded,
				r.Stats.HandoffsSent, r.Stats.HandoffsRecv,
				r.Stats.HandoffsDup, r.Stats.HandoffsPending,
			}
			buf = binary.AppendUvarint(buf, uint64(len(fields)))
			for _, f := range fields {
				buf = binary.AppendUvarint(buf, f)
			}
		}
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-p))
	return buf
}

// ReadFrameBuf reads one frame's payload into scratch, growing it only
// when the frame exceeds its capacity, and returns the (possibly
// re-grown) buffer sliced to the payload. The payload is valid until
// the next call reusing the same buffer; DecodeRequest and
// DecodeResponse copy everything they keep out of the payload, so a
// connection loop can thread one buffer through every frame and stop
// allocating once it reaches the connection's peak frame size.
//
//sstore:nomalloc
func ReadFrameBuf(br *bufio.Reader, scratch []byte) ([]byte, error) {
	// Header bytes come via ReadByte: handing a stack array to
	// io.ReadFull would make it escape through the io.Reader interface
	// and cost an allocation per frame.
	var hdr [4]byte
	for i := range hdr {
		b, err := br.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return scratch[:0], err
		}
		hdr[i] = b
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		//lint:allow hotalloc -- protocol error; the connection is about to die
		return scratch[:0], fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	if uint64(cap(scratch)) < uint64(n) {
		//lint:allow hotalloc -- grow-only; amortized zero once scratch reaches the peak frame size
		scratch = make([]byte, n)
	}
	payload := scratch[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return scratch[:0], err
	}
	return payload, nil
}

// DecodeRequest decodes one request payload.
func DecodeRequest(payload []byte) (*Request, error) {
	d := decoder{buf: payload}
	r := &Request{}
	r.ID = d.uvarint()
	r.Op = d.byte()
	switch r.Op {
	case OpCall:
		r.SP = d.string()
		r.Params = d.row()
	case OpIngest, OpHandoff:
		if r.Op == OpHandoff {
			r.From = int(d.uvarint())
			r.Partition = int(d.uvarint())
		}
		r.Stream = d.string()
		r.BatchID = d.varint()
		n := d.uvarint()
		if d.err == nil && n > uint64(len(payload)) {
			// More rows announced than the payload could possibly
			// hold: corrupt; refuse before allocating.
			d.fail("row count %d exceeds frame", n)
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			r.Rows = append(r.Rows, d.row())
		}
	case OpQuery:
		r.Partition = int(d.uvarint())
		r.SQL = d.string()
		r.Params = d.row()
	case OpHandoffPull:
		r.Node = int(d.uvarint())
	case OpStats, OpDrain:
	default:
		if d.err == nil {
			d.fail("unknown op %d", r.Op)
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("wire: request: %w", d.err)
	}
	return r, nil
}

// DecodeResponse decodes one response payload.
func DecodeResponse(payload []byte) (*Response, error) {
	d := decoder{buf: payload}
	r := &Response{}
	r.ID = d.uvarint()
	r.Op = d.byte()
	r.Status = d.byte()
	switch r.Status {
	case StatusErr:
		r.Msg = d.string()
	case StatusOverloaded:
		r.Partition = int(d.uvarint())
		r.Depth = int(d.uvarint())
		r.RetryAfterMicros = d.uvarint()
	case StatusOK:
		switch r.Op {
		case OpCall:
			ncols := d.uvarint()
			if d.err == nil && ncols > uint64(len(payload)) {
				d.fail("column count %d exceeds frame", ncols)
			}
			for i := uint64(0); i < ncols && d.err == nil; i++ {
				r.Columns = append(r.Columns, d.string())
			}
			nrows := d.uvarint()
			if d.err == nil && nrows > uint64(len(payload)) {
				d.fail("row count %d exceeds frame", nrows)
			}
			for i := uint64(0); i < nrows && d.err == nil; i++ {
				r.Rows = append(r.Rows, d.row())
			}
			r.LastInsertBatch = d.varint()
		case OpQuery:
			ncols := d.uvarint()
			if d.err == nil && ncols > uint64(len(payload)) {
				d.fail("column count %d exceeds frame", ncols)
			}
			for i := uint64(0); i < ncols && d.err == nil; i++ {
				r.Columns = append(r.Columns, d.string())
			}
			nrows := d.uvarint()
			if d.err == nil && nrows > uint64(len(payload)) {
				d.fail("row count %d exceeds frame", nrows)
			}
			for i := uint64(0); i < nrows && d.err == nil; i++ {
				r.Rows = append(r.Rows, d.row())
			}
		case OpIngest:
			r.BatchID = d.varint()
		case OpHandoff:
			r.BatchID = d.varint()
			r.Duplicate = d.byte()&1 != 0
		case OpStats:
			n := d.uvarint()
			fields := []*uint64{
				&r.Stats.Executed, &r.Stats.Aborted,
				&r.Stats.LogAppends, &r.Stats.LogSyncs,
				&r.Stats.ClientTrips, &r.Stats.EECrossings,
				&r.Stats.Overloaded,
				&r.Stats.HandoffsSent, &r.Stats.HandoffsRecv,
				&r.Stats.HandoffsDup, &r.Stats.HandoffsPending,
			}
			for i := uint64(0); i < n && d.err == nil; i++ {
				v := d.uvarint()
				if i < uint64(len(fields)) {
					*fields[i] = v
				}
			}
		}
	default:
		if d.err == nil {
			d.fail("unknown status %d", r.Status)
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("wire: response: %w", d.err)
	}
	return r, nil
}

// appendString is on the encode hot path of every request and response.
//
//sstore:nomalloc
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decoder is a cursor over one payload; the first failure sticks and
// every later read is a no-op, so call sites stay linear.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

//sstore:nomalloc
func (d *decoder) byte() uint8 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		//lint:allow hotalloc -- sticky-error construction; runs at most once per payload
		d.fail("truncated")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

//sstore:nomalloc
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		//lint:allow hotalloc -- sticky-error construction; runs at most once per payload
		d.fail("truncated uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

//sstore:nomalloc
func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		//lint:allow hotalloc -- sticky-error construction; runs at most once per payload
		d.fail("truncated varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.fail("truncated string")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) row() types.Row {
	if d.err != nil {
		return nil
	}
	row, n, err := types.DecodeRow(d.buf)
	if err != nil {
		d.fail("row: %v", err)
		return nil
	}
	d.buf = d.buf[n:]
	return row
}
