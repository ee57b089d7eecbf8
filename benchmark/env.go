package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// manifest says what produced a result.
type manifest struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
	Seed       int64  `json:"seed"`
	SpecHash   string `json:"spec_hash"`
}

func newManifest(seed int64) manifest {
	sha, dirty := gitState()
	return manifest{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		GitSHA: sha, GitDirty: dirty, Seed: seed, SpecHash: specHash(),
	}
}

// cpuModel reads the host's CPU model name; "unknown" where /proc has none.
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

// gitState returns the checkout's commit and whether it has local changes;
// "unknown" outside a git repository (go run does not stamp VCS info).
func gitState() (sha string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err == nil && len(status) > 0
}
