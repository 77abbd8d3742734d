// Package wal implements the dispatcher's durability subsystem: a
// segmented, CRC-framed, append-only write-ahead journal with batched
// group-commit fsync, periodic snapshot compaction, and a recovery path
// that rebuilds the scheduling state a crashed dispatcher held in memory.
//
// The journal records the three task-lifecycle transitions the dispatcher
// cannot afford to lose — accept, dispatch, complete — plus instance
// creation and destruction. A snapshot is a CRC-framed serialization of
// the live state (pending ring + outstanding table + instance buffers);
// recovery loads the newest valid snapshot and replays the segment tail
// behind it, tolerating torn or truncated tail records by design: a
// record either passes its CRC whole or the replay stops, so the journal
// never fabricates state.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// Kind tags a journal record.
type Kind uint8

const (
	// KindInstance records an instance creation (factory EPR handed out).
	KindInstance Kind = 1
	// KindDestroy records an instance destruction.
	KindDestroy Kind = 2
	// KindAccept records a bundle of accepted tasks. The submit
	// acknowledgment is withheld until this record is durable, so an
	// accepted task survives any crash.
	KindAccept Kind = 3
	// KindDispatch records a task assignment to an executor (advisory:
	// recovery uses it to restore attempt counts).
	KindDispatch Kind = 4
	// KindComplete records a finalized result, including its payload, so
	// results awaiting collection survive a crash and are redelivered.
	KindComplete Kind = 5
	// KindDispatchBatch records one grant — the executor and every task it
	// was handed — and replays as that many KindDispatch records in order.
	// The dispatcher writes this kind; KindDispatch is read for the journals
	// already on disk.
	KindDispatchBatch Kind = 6
	// KindCompleteBatch records the results one delivery (or one replay pass)
	// finalized, and replays as that many KindComplete records in order.
	KindCompleteBatch Kind = 7
	// KindSnapshot frames a state snapshot (snapshot files only, never in
	// segments).
	KindSnapshot Kind = 9
)

// String names the record kind for logs.
func (k Kind) String() string {
	switch k {
	case KindInstance:
		return "instance"
	case KindDestroy:
		return "destroy"
	case KindAccept:
		return "accept"
	case KindDispatch:
		return "dispatch"
	case KindComplete:
		return "complete"
	case KindDispatchBatch:
		return "dispatch-batch"
	case KindCompleteBatch:
		return "complete-batch"
	case KindSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record framing: an 8-byte header — payload length (4 bytes LE) and
// CRC-32C of the payload (4 bytes LE) — followed by the payload, which is
// one kind byte plus the record's JSON body. The CRC covers the kind byte,
// so a record cannot be reinterpreted as a different transition.
const (
	headerSize = 8
	// maxRecord bounds a single record (and rejects absurd lengths decoded
	// from corrupt headers before any allocation happens).
	maxRecord = 64 << 20
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// beginRecord reserves a record's header on dst and writes its kind byte;
// the caller appends the body behind it and calls sealRecord with the
// returned start. Writing the body in place is what keeps the append path
// free of an intermediate slice per record.
func beginRecord(dst []byte, kind Kind) (out []byte, start int) {
	start = len(dst)
	var hdr [headerSize]byte
	dst = append(dst, hdr[:]...)
	return append(dst, byte(kind)), start
}

// sealRecord fills in the header of the record begun at start, which runs to
// the end of dst: the payload's length and its CRC.
func sealRecord(dst []byte, start int) []byte {
	payload := dst[start+headerSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// marshalRecord frames a record whose body is the JSON encoding of v. On
// error dst comes back as it was given.
func marshalRecord(dst []byte, kind Kind, v any) ([]byte, error) {
	dst, start := beginRecord(dst, kind)
	dst, err := appendBody(dst, kind, v)
	if err != nil {
		return dst[:start], err
	}
	return sealRecord(dst, start), nil
}

// appendBody appends v's JSON encoding: by the hand encoders (state.go) for
// the per-task records, through encoding/json for the cold ones (instance,
// destroy, snapshot).
func appendBody(dst []byte, kind Kind, v any) ([]byte, error) {
	switch rec := v.(type) {
	case AcceptRec:
		return rec.appendJSON(dst), nil
	case DispatchRec:
		return rec.appendJSON(dst), nil
	case CompleteRec:
		return rec.appendJSON(dst), nil
	case DispatchBatchRec:
		return rec.appendJSON(dst), nil
	case CompleteBatchRec:
		return rec.appendJSON(dst), nil
	}
	body, err := json.Marshal(v)
	if err != nil {
		return dst, fmt.Errorf("wal: marshal %v record: %w", kind, err)
	}
	return append(dst, body...), nil
}

// rawRecord is one decoded record: the kind byte and its JSON body. The
// body aliases the decode buffer.
type rawRecord struct {
	kind Kind
	body []byte
}

// nextRecord decodes the record at the head of buf. ok=false means the
// buffer holds no further valid record — a clean end, a torn tail, or
// corruption; the caller treats all three as end-of-journal. rest is the
// remaining buffer after a successful decode.
func nextRecord(buf []byte) (rec rawRecord, rest []byte, ok bool) {
	if len(buf) < headerSize {
		return rawRecord{}, nil, false
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	crc := binary.LittleEndian.Uint32(buf[4:8])
	if n == 0 || n > maxRecord || int(n) > len(buf)-headerSize {
		return rawRecord{}, nil, false // torn or corrupt length
	}
	payload := buf[headerSize : headerSize+int(n)]
	if crc32.Checksum(payload, castagnoli) != crc {
		return rawRecord{}, nil, false // corrupt payload: reject, never guess
	}
	return rawRecord{kind: Kind(payload[0]), body: payload[1:]}, buf[headerSize+int(n):], true
}

// unmarshal decodes a record body, named so replay call sites stay terse.
func unmarshal(b []byte, v any) error { return json.Unmarshal(b, v) }

// NextFrame splits the first framed record off buf without decoding its
// body: it returns the whole frame (header + payload, CRC-verified), the
// remaining buffer, and whether a complete valid record was present. The
// replication source uses it to count and re-frame committed batches; the
// returned frame aliases buf.
func NextFrame(buf []byte) (frame, rest []byte, ok bool) {
	if len(buf) < headerSize {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	crc := binary.LittleEndian.Uint32(buf[4:8])
	if n == 0 || n > maxRecord || int(n) > len(buf)-headerSize {
		return nil, nil, false
	}
	end := headerSize + int(n)
	if crc32.Checksum(buf[headerSize:end], castagnoli) != crc {
		return nil, nil, false
	}
	return buf[:end], buf[end:], true
}

// CountFrames reports how many complete valid records buf holds (a batch
// handed to Options.Mirror is always whole records, so this is exact).
func CountFrames(buf []byte) int {
	n := 0
	for {
		_, rest, ok := NextFrame(buf)
		if !ok {
			return n
		}
		buf = rest
		n++
	}
}
