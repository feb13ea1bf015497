package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/paper-repro/ccbm/cc/cluster"
)

// TestRun drives run against an in-process ccserved handler: the
// default mixed closed loop, the pipelined -batch loop and a weak-read
// scenario must each complete ops and exit 0; a deleted flag is a
// usage error.
func TestRun(t *testing.T) {
	c, err := cluster.New(cluster.Config{Criterion: "CCv", Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(cluster.NewHTTPHandler(c))
	defer srv.Close()

	base := []string{"-addr", srv.URL, "-clients", "2", "-objects", "6", "-duration", "200ms"}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"closed", nil, "scenario mixed, closed loop,"},
		{"batch", []string{"-batch"}, "32 in flight per worker"},
		{"read-any", []string{"-scenario", "read-heavy", "-read-target", "any"}, "read-target any"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(append(base, tc.args...), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.want) {
				t.Errorf("stdout lacks %q:\n%s", tc.want, &stdout)
			}
		})
	}

	var stdout, stderr bytes.Buffer
	if code := run(append(base, "-adt", "Counter"), &stdout, &stderr); code != 2 {
		t.Fatalf("-adt Counter: exit %d, want 2 (usage)", code)
	}
}
