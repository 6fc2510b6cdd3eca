package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the calling OS thread's CPU time; the caller must hold
// its goroutine on the thread (runtime.LockOSThread) for successive
// readings to be comparable.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux configuration Go supports.
const clockTicks = 100

// pidCPU is another process's user+system CPU time from /proc.
func pidCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// statusKB reads one "Key: N kB" line of /proc/<pid>/status ("self"
// for this process).
func statusKB(pid, key string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb
		}
	}
	return 0
}

// rssSampler records this process's peak resident set size while it
// runs — the peak during the measured phase, not since process start
// (VmHWM would include input generation and reference replays).
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak float64 // kB
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	kb := statusKB("self", "VmRSS")
	s.mu.Lock()
	s.peak = max(s.peak, kb)
	s.mu.Unlock()
}

// Stop ends sampling and returns the peak in MB.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak / 1024
}

// fsyncProbe times raw 4 KiB write+fsync pairs in dir: the disk
// floor every durable workload's latency sits on. It returns the
// median in milliseconds.
func fsyncProbe(dir string, n int) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(t0))/1e6)
	}
	return median(times), nil
}

// hostCPU reads the host's steal and total CPU ticks from /proc/stat:
// the share of time the hypervisor gave this machine's vCPUs to
// someone else.
func hostCPU() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// envNote describes the host a result was measured on.
func envNote(dir string) (string, float64) {
	fs, err := fsyncProbe(dir, 50)
	if err != nil {
		return fmt.Sprintf("env: fsync probe failed: %v", err), 0
	}
	abs, _ := filepath.Abs(dir)
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d go=%s %s/%s fsync_ms(p50 of 50, %s)=%.4f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		filepath.Base(abs), fs), fs
}
