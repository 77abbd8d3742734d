package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"falkon/internal/wal"
)

// environment is what a result depends on besides the code: printed with
// every result, and results whose environments differ are never reduced
// into one table (BENCH_live.json rows from the 1-CPU and 2-CPU boxes are
// indistinguishable; this benchmark must not repeat that).
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	JournalDir string `json:"journal_dir"`
	JournalFS  string `json:"journal_fs"`
}

func currentEnvironment(journalRoot string) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     buildCommit(),
		JournalDir: journalRoot,
		JournalFS:  fsKind(journalRoot) + ", fsync stubbed",
	}
}

func (e environment) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s journal_dir=%s (%s)",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.JournalDir, e.JournalFS)
}

// buildCommit is the revision the Go toolchain stamped into the binary, or
// "unknown" when it was built outside a git work tree.
func buildCommit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision" && len(s.Value) >= 7:
				rev = s.Value[:7]
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func fsKind(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown fs"
	}
	const tmpfsMagic = 0x01021994
	if st.Type == tmpfsMagic {
		return "tmpfs"
	}
	return "disk"
}

// noSyncFS is the real filesystem with fsync turned into a no-op, handed to
// the journal through its wal.FS seam. Device latency is deliberately out
// of this benchmark — group-commit fsync on this VM's disk swung 17.3–23.4K
// tasks/s over six identical runs — while everything the WAL does in
// software (record encode, per-shard appenders, the group-commit hand-off,
// the write, the ack wait) stays in. The journal lives inside the checkout
// because the benchmark may write nowhere else.
type noSyncFS struct{ wal.FS }

type noSyncFile struct{ wal.File }

func (noSyncFile) Sync() error { return nil }

func (fs noSyncFS) Create(name string, excl bool) (wal.File, error) {
	f, err := fs.FS.Create(name, excl)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

// newJournalDir makes a fresh journal directory under root.
func newJournalDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "journal-")
}

// cpuTime is the user+system CPU time the whole process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (the kernel's
// VmHWM, read through getrusage so no file outside the checkout is opened).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
