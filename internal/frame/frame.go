// Package frame is the framing of the wire protocol's op stream (v2 in
// cc/cluster/wire's package doc): a 4-byte big-endian payload length,
// one kind byte, then a JSON payload. cc/cluster serves it and
// cc/client speaks it; it stays off the public API.
package frame

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"

	"github.com/paper-repro/ccbm/cc/cluster/wire"
)

// Frame kinds. A client sends Invoke or Batch frames; the server
// answers each, in order, with one Result or one Error frame.
const (
	Invoke byte = 'I' // wire.InvokeRequest
	Batch  byte = 'B' // wire.BatchRequest
	Result byte = 'R' // wire.InvokeResponse or wire.BatchResponse
	Error  byte = 'E' // wire.ErrorResponse
)

// Upgrade is the Upgrade header token of GET /v1/stream.
const Upgrade = "ccbm-frames"

// Max is the payload cap of a frame of the given kind: the body cap of
// the matching POST endpoint for a request, what the length field can
// carry for a response.
func Max(kind byte) int64 {
	switch kind {
	case Invoke:
		return wire.MaxRequestBytes
	case Batch:
		return wire.MaxBatchBytes
	}
	return math.MaxUint32
}

// Write sends v as one frame and flushes w. A payload over Max(kind)
// is not sent: Write returns a CodeTooLarge *wire.Error.
func Write(w *bufio.Writer, kind byte, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if int64(len(b)) > Max(kind) {
		return wire.Errf(wire.CodeTooLarge, "request body exceeds %d bytes", Max(kind))
	}
	w.Write(append(binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(b))), kind))
	w.Write(b)
	return w.Flush()
}

// Read reads one frame header and returns the frame's kind and a
// reader of its payload. A payload over Max(kind) is left unread, and
// Read returns a CodeTooLarge *wire.Error.
func Read(r *bufio.Reader) (byte, *io.LimitedReader, error) {
	h, err := r.Peek(5)
	if err != nil {
		return 0, nil, err
	}
	kind, n := h[4], int64(binary.BigEndian.Uint32(h))
	r.Discard(5)
	if n > Max(kind) {
		return kind, nil, wire.Errf(wire.CodeTooLarge, "request body exceeds %d bytes", Max(kind))
	}
	return kind, &io.LimitedReader{R: r, N: n}, nil
}
