//go:build unix

package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"softwatt/internal/ckpt"
	"softwatt/internal/obs"
)

// TestSaveFileMode checks that a saved artifact gets mode 0644 under the
// umask and its new directory 0755 under the same umask, whether the file
// is new or replaces one, so a cache directory shared between users stays
// readable to them.
func TestSaveFileMode(t *testing.T) {
	cases := []struct {
		name              string
		umask             int
		existing          bool // replace a 0600 file already at the path
		wantFile, wantDir fs.FileMode
	}{
		{name: "umask 022", umask: 0o022, wantFile: 0o644, wantDir: 0o755},
		{name: "umask 022 replacing", umask: 0o022, existing: true, wantFile: 0o644, wantDir: 0o755},
		{name: "umask 002", umask: 0o002, wantFile: 0o644, wantDir: 0o755},
		{name: "umask 077", umask: 0o077, wantFile: 0o600, wantDir: 0o700},
		{name: "umask 077 replacing", umask: 0o077, existing: true, wantFile: 0o600, wantDir: 0o700},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := syscall.Umask(tc.umask)
			defer syscall.Umask(old)
			dir := filepath.Join(t.TempDir(), "cache")
			path := RunLog.Path(dir, "compress", "0123456789abcdef")
			if tc.existing {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte("old"), 0o600); err != nil {
					t.Fatal(err)
				}
			}
			if err := Save(path, ckpt.Section{Tag: [4]byte{'T', 'E', 'S', 'T'}, Payload: []byte("x")}); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := fi.Mode().Perm(); got != tc.wantFile {
				t.Errorf("file mode %v, want %v", got, tc.wantFile)
			}
			if tc.existing {
				return // the test made the directory itself
			}
			di, err := os.Stat(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := di.Mode().Perm(); got != tc.wantDir {
				t.Errorf("directory mode %v, want %v", got, tc.wantDir)
			}
		})
	}
}

// TestLookupOutcomes maps each state of a cache path to Lookup's outcome:
// a hit, a miss, corruption (counted and removed, then rebuilt), or a read
// failure, which is returned as is, counted nowhere and removes nothing.
func TestLookupOutcomes(t *testing.T) {
	decode := func(data []byte) (string, error) {
		if string(data) != "good" {
			return "", errors.New("bad payload")
		}
		return "good", nil
	}
	hits, misses, corrupt := RunLog.counters()
	cases := []struct {
		name    string
		setup   func(t *testing.T, dir string) string // returns the path to look up
		want    string
		ok      bool
		err     error // errors.Is target; nil = no error
		counted [3]uint64
		kept    bool // the path still exists afterwards
	}{
		{name: "hit", want: "good", ok: true, counted: [3]uint64{1, 0, 0}, kept: true,
			setup: func(t *testing.T, dir string) string { return write(t, dir, "good") }},
		{name: "miss", counted: [3]uint64{0, 1, 0},
			setup: func(t *testing.T, dir string) string { return filepath.Join(dir, "absent") }},
		{name: "corrupt", counted: [3]uint64{0, 1, 1},
			setup: func(t *testing.T, dir string) string { return write(t, dir, "junk") }},
		{name: "parent is a file", err: syscall.ENOTDIR, kept: false,
			setup: func(t *testing.T, dir string) string { return filepath.Join(write(t, dir, "x"), "f") }},
		{name: "path is a directory", err: syscall.EISDIR, kept: true,
			setup: func(t *testing.T, dir string) string {
				path := filepath.Join(dir, "d")
				if err := os.Mkdir(path, 0o755); err != nil {
					t.Fatal(err)
				}
				return path
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.setup(t, t.TempDir())
			counters := []*obs.Counter{hits, misses, corrupt}
			var start [3]uint64
			for i, c := range counters {
				start[i] = c.Value()
			}
			v, ok, err := Lookup(RunLog, path, decode)
			if v != tc.want || ok != tc.ok {
				t.Errorf("Lookup = %q, %v; want %q, %v", v, ok, tc.want, tc.ok)
			}
			if (err == nil) != (tc.err == nil) || (tc.err != nil && !errors.Is(err, tc.err)) {
				t.Errorf("error %v, want %v", err, tc.err)
			}
			for i, c := range counters {
				if got := c.Value() - start[i]; got != tc.counted[i] {
					t.Errorf("counter %d (hits, misses, corrupt) moved by %d, want %d", i, got, tc.counted[i])
				}
			}
			if _, err := os.Stat(path); (err == nil) != tc.kept {
				t.Errorf("path exists afterwards: %v, want %v", err == nil, tc.kept)
			}
		})
	}
}

// write saves content in a new file in dir and returns its path.
func write(t *testing.T, dir, content string) string {
	t.Helper()
	path := filepath.Join(dir, "artifact")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
