package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// host is the provenance of one result set. It is reported beside the
// metrics and never used to scale them; it is there so that two sets
// that disagree can be traced to their hosts.
type host struct {
	NProc    int        `json:"nproc"`
	CPU      string     `json:"cpu_model"`
	Go       string     `json:"go_version"`
	Git      string     `json:"git_revision"`
	Source   string     `json:"source_sha256"`
	LoadAvg  [3]float64 `json:"loadavg"`
	RefLoopS float64    `json:"ref_loop_s"`
	RefMemS  float64    `json:"ref_mem_s"`
}

func provenance(root string) host {
	h := host{
		NProc:    runtime.NumCPU(),
		CPU:      cpuModel(),
		Go:       runtime.Version(),
		Git:      gitRevision(root),
		Source:   sourceDigest(root),
		RefLoopS: refLoop(),
		RefMemS:  refMem(),
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		for i, f := range strings.Fields(string(data)) {
			if i < len(h.LoadAvg) {
				h.LoadAvg[i], _ = strconv.ParseFloat(f, 64)
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision is the checkout's commit, or "none" outside a git work
// tree; the source digest identifies the code either way.
func gitRevision(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program's Go sources and module file (the
// benchmark's own directory and dot directories excluded) by path and
// content. It is provenance only: an entry that cannot be read is left
// out rather than failing the run.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Type().IsRegular() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var loopSink uint64

// refLoop times a fixed pure-Go integer loop (median of three), a yard
// stick of the host's single-thread compute speed at the time of the run.
func refLoop() float64 {
	var times []float64
	for k := 0; k < 3; k++ {
		start := time.Now()
		x, s := uint64(88172645463325252), uint64(0)
		for i := 0; i < 50_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			s += x & 0xff
		}
		loopSink += s
		times = append(times, time.Since(start).Seconds())
	}
	return median(times)
}

// refMem times a fixed dependent walk through a 32 MiB random cycle
// (median of three): the host's memory latency at the time of the run,
// which neighbours sharing its caches move while refLoop stays put.
func refMem() float64 {
	const n = 8 << 20
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := n - 1; i > 0; i-- { // Sattolo: one cycle through every slot
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	var times []float64
	for k := 0; k < 3; k++ {
		start := time.Now()
		p := uint32(0)
		for i := 0; i < 2_000_000; i++ {
			p = next[p]
		}
		loopSink += uint64(p)
		times = append(times, time.Since(start).Seconds())
	}
	return median(times)
}
