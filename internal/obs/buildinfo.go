package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// RegisterBuildInfo publishes the standard identification metrics every
// daemon exposes on /metrics:
//
//	falkon_build_info{component=...,go=...,revision=...} 1
//	falkon_uptime_seconds{component=...}
//
// Version and revision come from the binary's embedded build info (the
// module version and vcs.revision when built from a git checkout). The
// component label keeps the series distinct when a forwarder merges
// snapshots from several processes — merged gauges sum, and summing
// differently-labeled series is a no-op collision-wise.
//
// The uptime gauge is refreshed by a background ticker; the goroutine runs
// for the process's lifetime, which is what a daemon wants.
func RegisterBuildInfo(reg *Registry, component string) {
	if reg == nil {
		return
	}
	version, revision := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				revision = s.Value
				if len(revision) > 12 {
					revision = revision[:12]
				}
			}
		}
	}
	key := fmt.Sprintf(`falkon_build_info{component=%q,go=%q,revision=%q,version=%q}`,
		component, runtime.Version(), revision, version)
	reg.Gauge(key).Set(1)

	up := reg.Gauge(Labeled("falkon_uptime_seconds", "component", component))
	up.Set(0)
	start := time.Now()
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for range t.C {
			up.Set(int64(time.Since(start).Seconds()))
		}
	}()
}

// Syscalls returns the read and write system calls this process has made
// (syscr and syscw of /proc/self/io; reading them is two of the former), or
// false where there is no such file: the syscall ledger the tests keep.
func Syscalls() (reads, writes int64, ok bool) {
	raw, err := os.ReadFile("/proc/self/io")
	var chars int64
	if err == nil {
		_, err = fmt.Sscanf(string(raw), "rchar: %d\nwchar: %d\nsyscr: %d\nsyscw: %d", &chars, &chars, &reads, &writes)
	}
	return reads, writes, err == nil
}
