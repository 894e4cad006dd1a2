package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// stamp identifies the host, toolchain and source a result was measured on,
// so a number is never compared with one taken somewhere else.
type stamp struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// GitSHA is the VCS revision the binary was built from, when the
	// build saw a repository; TreeSHA256 digests the Go sources the
	// wrapper built, which identifies the code in a checkout without one.
	GitSHA     string `json:"git_sha"`
	TreeSHA256 string `json:"tree_sha256"`
	Shards     int    `json:"shards,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	// Manifest names the media under the durable manifest, and
	// FileMediumFS the filesystem the traced run's FileMedium probe
	// writes to (README.md says why the two differ).
	Manifest     string `json:"manifest,omitempty"`
	FileMediumFS string `json:"filemedium_fs,omitempty"`
}

func hostStamp() stamp {
	s := stamp{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     "unknown",
		TreeSHA256: os.Getenv("PERFBENCH_TREE_SHA256"),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.GitSHA = kv.Value
			}
		}
	}
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsMagic names the statfs magic numbers of the filesystems a checkout is
// likely to sit on.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2fc12fc1: "zfs",
}

// fsType reports the filesystem type holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("magic-%x", int64(st.Type))
}

// cpuSample is the kernel's cumulative CPU accounting over all CPUs, in
// clock ticks: all time, and the time the hypervisor ran something else
// on this machine's virtual CPUs (steal).
type cpuSample struct{ total, steal int64 }

// readCPU samples /proc/stat; where it is unavailable every share reads 0.
func readCPU() cpuSample {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSample{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var s cpuSample
	for i := 1; i < len(f) && i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return cpuSample{}
		}
		s.total += v
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

// stealShare is the share of CPU time stolen between two samples.
func stealShare(a, b cpuSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
