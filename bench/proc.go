package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sstore/bench/apps"
)

// BuildServer compiles bench/cmd/benchd into dir and returns the
// binary's path. The go command skips the link when the binary is
// current, so calling this on every run costs a fraction of a second.
func BuildServer(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "benchd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "sstore/bench/cmd/benchd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build benchd: %v\n%s", err, out)
	}
	return bin, nil
}

// serverOpts selects how benchd is started for one purpose of a run.
type serverOpts struct {
	app    string
	dir    string // state directory, kept across restarts of one log
	log    string // benchd -log
	budget int64
	spans  string // file benchd writes its spans to at quit, or ""
}

// server is one running benchd process.
type server struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	addr  string
	start time.Time // just before exec
}

// startServer execs benchd and waits for its listening line.
func startServer(bin string, o serverOpts) (*server, error) {
	args := []string{"-app", o.app, "-dir", o.dir, "-log", o.log,
		"-archive-budget", strconv.FormatInt(o.budget, 10)}
	if o.spans != "" {
		args = append(args, "-spans", o.spans)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout), start: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := s.out.ReadString('\n')
	if err != nil {
		s.kill()
		return nil, fmt.Errorf("benchd exited before listening: %w", err)
	}
	_, addr, ok := strings.Cut(strings.TrimSpace(line), "listening on ")
	if !ok {
		s.kill()
		return nil, fmt.Errorf("benchd: unexpected first line %q", line)
	}
	s.addr = addr
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// command sends one control line.
func (s *server) command(c string) error {
	_, err := io.WriteString(s.stdin, c+"\n")
	return err
}

// stat asks benchd for its CPU, heap and SP-body counters.
func (s *server) stat() (apps.Stat, error) {
	var st apps.Stat
	if err := s.command("stat"); err != nil {
		return st, err
	}
	line, err := s.out.ReadBytes('\n')
	if err != nil {
		return st, fmt.Errorf("benchd stat: %w", err)
	}
	return st, json.Unmarshal(line, &st)
}

// quit asks for a clean shutdown (engine closed, log flushed, spans
// written) and waits for the process.
func (s *server) quit() error {
	if err := s.command("quit"); err != nil {
		s.kill()
		return err
	}
	s.stdin.Close()
	return s.cmd.Wait()
}

// kill SIGKILLs the process and reaps it: the crash of the
// exactly-once check, and the cleanup on every error path.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // the process may already be gone
	_ = s.cmd.Wait()         // a killed process reports its signal as an error
}

// procCounters are the /proc/<pid> numbers the server.* metrics are
// differences of.
type procCounters struct {
	syscalls   int64 // syscr + syscw
	readBytes  int64 // rchar
	writeBytes int64 // wchar
	ctxsw      int64 // voluntary + involuntary, summed over threads
}

func readProcCounters(pid int) (procCounters, error) {
	var c procCounters
	io, err := procFields(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return c, err
	}
	c.syscalls = io["syscr"] + io["syscw"]
	c.readBytes, c.writeBytes = io["rchar"], io["wchar"]
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil {
		return c, err
	}
	for _, t := range tasks {
		st, err := procFields(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		c.ctxsw += st["voluntary_ctxt_switches"] + st["nonvoluntary_ctxt_switches"]
	}
	return c, nil
}

// peakRSSMB is the process's VmHWM in MB.
func peakRSSMB(pid int) (float64, error) {
	st, err := procFields(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, ok := st["VmHWM"]
	if !ok {
		return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
	}
	return float64(kb) / 1024, nil
}

// procFields parses a "key: number [unit]" /proc file into a map,
// skipping lines whose value is not a number.
func procFields(path string) (map[string]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := make(map[string]int64)
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			continue
		}
		if n, err := strconv.ParseInt(f[0], 10, 64); err == nil {
			m[k] = n
		}
	}
	return m, nil
}

// onTmpfs reports whether dir sits on a memory filesystem, where
// fsync is free and a logging workload measures nothing.
func onTmpfs(dir string) (bool, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return false, err
	}
	const tmpfsMagic, ramfsMagic = 0x01021994, 0x858458f6
	return st.Type == tmpfsMagic || st.Type == ramfsMagic, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
