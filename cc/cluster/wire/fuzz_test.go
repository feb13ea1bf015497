package wire

import (
	"bytes"
	"encoding/json"
	"testing"
)

// Native fuzz targets for the request decoders the op stream and
// POST /v1/invoke and /v1/batch run on untrusted bytes. Run with
// `go test -fuzz=FuzzDecodeInvoke ./cc/cluster/wire` (or
// FuzzDecodeBatch); under plain `go test` the seeds below and the
// corpus in testdata/fuzz run as a regression suite. The invariants:
// DecodeJSON never panics, a rejection is a typed bad_request, and an
// accepted input is exactly one JSON value whose decoded form
// re-encodes to an input DecodeJSON accepts again, unchanged.

func FuzzDecodeInvoke(f *testing.F) {
	fuzzDecode[InvokeRequest](f,
		`{"session":1,"object":"n","method":"inc","args":[2]}`,
		`{"session":3,"object":"r","method":"r","target":"any","replica":1,"read_replica":0,"epoch":4,"frontiers":[{"shard":0,"vc":[1,0,2]}]}`,
		`{"session":1,"object":"n","method":"get","bogus":1}`,
		`{"session":1} {}`,
		`{"session":1} }`,
		`{"session":"1"}`,
		`null`,
		``,
	)
}

func FuzzDecodeBatch(f *testing.F) {
	fuzzDecode[BatchRequest](f,
		`{"groups":[{"session":1,"ops":[{"object":"n","method":"inc","args":[1]},{"object":"n","method":"get"}]}]}`,
		`{"groups":[{"session":1,"target":"any","frontiers":[{"shard":1,"vc":[3]}],"ops":[{"object":"q","method":"push","args":[7]}]},{"session":2,"ops":[]}],"epoch":2}`,
		`{"groups":[{"session":1,"ops":[{"object":"n","method":"get","extra":true}]}]}`,
		`{"groups":[]}]`,
		`{"groups":null}`,
		`[]`,
	)
}

func fuzzDecode[T any](f *testing.F, seeds ...string) {
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var v T
		if e := DecodeJSON(bytes.NewReader(in), &v); e != nil {
			if e.Code != CodeBadRequest || e.Message == "" {
				t.Fatalf("rejection %+v is not a typed bad_request", e)
			}
			return
		}
		if !json.Valid(in) {
			t.Fatalf("accepted %q, which is not one JSON value", in)
		}
		b, err := json.Marshal(&v)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", v, err)
		}
		var again T
		if e := DecodeJSON(bytes.NewReader(b), &again); e != nil {
			t.Fatalf("re-encoded %s rejected: %v", b, e)
		}
		if b2, _ := json.Marshal(&again); !bytes.Equal(b, b2) {
			t.Fatalf("re-encoding changed the request:\n%s\n%s", b, b2)
		}
	})
}
