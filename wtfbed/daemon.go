package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one spawned wtfd process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for diagnostics
}

// readyTimeout bounds spawn-to-serving, including crash recovery.
const readyTimeout = 60 * time.Second

// startDaemon spawns wtfd and waits for its "serving on" line. The child is
// killed if this process dies.
func startDaemon(bin string, args []string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start wtfd: %w", err)
	}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "wtfd: serving on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case ready <- addr:
				default:
				}
			}
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
		d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-ready:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("wtfd exited before serving: %s", d.lastLines())
	case <-time.After(readyTimeout):
		d.kill()
		return nil, fmt.Errorf("wtfd not serving after %v: %s", readyTimeout, d.lastLines())
	}
}

func (d *daemon) lastLines() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.exited
}

// procSample is a point-in-time reading of wtfd's /proc counters.
type procSample struct {
	cpuTicks   int64 // utime + stime, in clock ticks
	vcsw       int64 // voluntary context switches, summed over threads
	hwmKB      int64 // VmHWM
	writeBytes int64 // bytes the process caused to be written to storage
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux architecture Go supports).
const clockTicks = 100

func readProc(pid int) (procSample, error) {
	var s procSample
	dir := fmt.Sprintf("/proc/%d", pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(string(stat), ')')
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return s, errors.New("short /proc stat line")
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	s.cpuTicks = ut + st
	s.hwmKB = statusField(dir+"/status", "VmHWM:")
	tasks, _ := filepath.Glob(dir + "/task/*/status")
	for _, t := range tasks {
		s.vcsw += statusField(t, "voluntary_ctxt_switches:")
	}
	s.writeBytes = statusField(dir+"/io", "write_bytes:")
	return s, nil
}

// statusField returns the first integer after label in a /proc key-value
// file, or 0.
func statusField(path, label string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, label); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
