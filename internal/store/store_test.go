//go:build unix

package store

import (
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"softwatt/internal/ckpt"
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
