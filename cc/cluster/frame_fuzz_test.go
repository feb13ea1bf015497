package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"testing"

	"github.com/paper-repro/ccbm/cc/cluster/wire"
	"github.com/paper-repro/ccbm/internal/frame"
)

// FuzzServeFrames feeds arbitrary bytes to the op stream's frame loop,
// with the invoke and batch decoders behind it and no cluster (a
// decoded request is echoed back as its result). Run with
// `go test -fuzz=FuzzServeFrames ./cc/cluster`. The loop must never
// panic; it must answer every request frame it reads, in order, with
// one well-formed frame, a result or an error frame carrying a typed
// *wire.Error, plus at most one last error frame for a frame it
// refuses to read.
func FuzzServeFrames(f *testing.F) {
	f.Add(rawFrame(frame.Invoke, `{"session":1,"object":"n","method":"get"}`))
	f.Add(append(rawFrame(frame.Invoke, `{"session":1,"object":"n","method":"inc","args":[1]}`),
		rawFrame(frame.Batch, `{"groups":[{"session":1,"ops":[{"object":"n","method":"get"}]}]}`)...))
	f.Add(append(rawFrame(frame.Invoke, `{"session":1,"bogus":1}`), rawFrame(frame.Invoke, `{} {}`)...))
	f.Add(rawFrame('X', `{}`))
	f.Add([]byte{0, 0x10, 0, 1, frame.Invoke})  // over the invoke cap
	f.Add([]byte{0, 0, 0, 9, frame.Batch, '{'}) // payload cut short
	f.Fuzz(func(t *testing.T, in []byte) {
		var out bytes.Buffer
		rw := bufio.NewReadWriter(bufio.NewReader(bytes.NewReader(in)), bufio.NewWriter(&out))
		requests := 0
		serveFrames(rw, func(kind byte, body io.Reader) (any, *wire.Error) {
			requests++
			var req any = &wire.InvokeRequest{}
			if kind == frame.Batch {
				req = &wire.BatchRequest{}
			}
			if e := wire.DecodeJSON(body, req); e != nil {
				return nil, e
			}
			return req, nil
		})
		answers := 0
		for br := bufio.NewReader(&out); ; answers++ {
			kind, body, err := frame.Read(br)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("answer %d: %v", answers, err)
			}
			payload, _ := io.ReadAll(body)
			if body.N != 0 {
				t.Fatalf("answer %d cut short", answers)
			}
			if kind == frame.Result {
				continue
			}
			var er wire.ErrorResponse
			if kind != frame.Error || json.Unmarshal(payload, &er) != nil || er.Err == nil ||
				er.Err.Code != wire.CodeBadRequest && er.Err.Code != wire.CodeTooLarge {
				t.Fatalf("answer %d: %q frame %q is neither a result nor a typed error", answers, kind, payload)
			}
		}
		if answers != requests && answers != requests+1 {
			t.Fatalf("%d request frames read, %d answered", requests, answers)
		}
	})
}

// rawFrame is one frame with a literal payload.
func rawFrame(kind byte, payload string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), append([]byte{kind}, payload...)...)
}
