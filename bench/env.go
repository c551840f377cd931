package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// envInfo is the machine-and-provenance block attached to every result:
// a number without the box it was measured on cannot be compared.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GitCommit  string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Network    string `json:"network"`
	WALDirFS   string `json:"wal_dir_filesystem"`
	// Probes, each the median of 50: one fsync of a 256-byte append in the
	// WAL directory, one TCP round trip of one byte over loopback, and 2^16
	// dependent integer steps on one core. The reference box runs minutes
	// at a time about a fifth faster than usual; the probes are what a
	// timing that moved can be held against before the code is blamed.
	FsyncProbeUs   float64 `json:"env.fsync_probe_us"`
	LoopbackRTTUs  float64 `json:"env.loopback_rtt_us"`
	CPUProbeUs     float64 `json:"env.cpu_probe_us"`
	MeasuredAtUnix int64   `json:"measured_at_unix"`
}

const probeRounds = 50

func collectEnv(seed int64, outDir string) *envInfo {
	e := &envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Kernel: kernelRelease(),
		GitCommit: gitCommit(), Seed: seed,
		Network:        "loopback only: every listener is 127.0.0.1:0, clients and daemons share one process",
		MeasuredAtUnix: time.Now().Unix(),
	}
	dir := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(dir, 0o755); err == nil {
		e.WALDirFS = fsType(dir)
		e.FsyncProbeUs = fsyncProbe(dir)
	}
	e.LoopbackRTTUs = loopbackProbe()
	e.CPUProbeUs = cpuProbe()
	return e
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

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// gitCommit is the checkout's HEAD, or "unknown" outside a git checkout
// (the benchmark driver runs from an exported tree).
func gitCommit() string {
	// Only ask git when the module's parent is itself a checkout, so an
	// exported tree never makes git search the directories above it.
	if _, err := os.Stat(filepath.Join("..", ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("magic 0x%x", uint32(st.Type))
}

func cpuProbe() float64 {
	var us []float64
	r := rng{s: 1}
	for i := 0; i < probeRounds; i++ {
		t0 := time.Now()
		for k := 0; k < 1<<16; k++ {
			r.s ^= r.next()
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us)
}

func fsyncProbe(dir string) float64 {
	path := filepath.Join(dir, fmt.Sprintf("fsync-probe-%d", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return 0
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 256)
	var us []float64
	for i := 0; i < probeRounds; i++ {
		if _, err := f.Write(buf); err != nil {
			return 0
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us)
}

func loopbackProbe() float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		b := make([]byte, 1)
		for {
			if _, err := c.Read(b); err != nil {
				return
			}
			if _, err := c.Write(b); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0
	}
	b := make([]byte, 1)
	var us []float64
	for i := 0; i < probeRounds; i++ {
		t0 := time.Now()
		if _, err := c.Write(b); err != nil {
			break
		}
		if _, err := c.Read(b); err != nil {
			break
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	c.Close()
	<-done
	return median(us)
}
