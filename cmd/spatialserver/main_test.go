package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when the test binary is
// started as a server by runServer.
func TestMain(m *testing.M) {
	if os.Getenv("SPATIALSERVER_TEST_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runServer runs main with args in a child process and returns its
// exit code and standard error.
func runServer(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SPATIALSERVER_TEST_AS_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestDegenerateDataFailsInOneLine: data whose bounding box has no
// width cannot derive the index space, and the server says so in one
// line and exits 1, sharded or not — never with a panic trace. A
// negative -shards is refused the same way.
func TestDegenerateDataFailsInOneLine(t *testing.T) {
	data := filepath.Join(t.TempDir(), "line.csv")
	if err := os.WriteFile(data, []byte("R,0.5,0.1,0.5,0.2\nR,0.5,0.6,0.5,0.9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := data + ": core: data bounding box [0.5,0.5]x[0.1,0.9] is degenerate; set Options.Space\n"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-data", data}, want},
		{[]string{"-data", data, "-shards", "2"}, want},
		{[]string{"-data", data, "-shards", "2", "-live"}, want},
		{[]string{"-data", data, "-shards", "-1"}, "-shards must be >= 0\n"},
	} {
		args, want := tc.args, tc.want
		code, stderr := runServer(t, append(args, "-log-level", "error", "-addr", "127.0.0.1:0")...)
		if code != 1 || stderr != want {
			t.Errorf("spatialserver %s: exit %d, stderr\n%s\nwant exit 1, stderr\n%s",
				strings.Join(args, " "), code, stderr, want)
		}
	}
}
