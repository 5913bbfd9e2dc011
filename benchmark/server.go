package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat. It is 100 on every Linux the Go toolchain supports.
const clockTick = 100

// buildServer compiles cmd/drainnet-serve of the checkout at root into
// outDir and returns the binary's path.
func buildServer(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "drainnet-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/drainnet-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build drainnet-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one drainnet-serve child process.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	setup   time.Duration // exec → first /v1/healthz 200
	waited  chan struct{} // closed once cmd.Wait returned
	stopped sync.Once
}

// freePort asks the kernel for an unused loopback port by binding :0.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer executes bin with args on a free loopback port, in its
// own process group, logging to logPath, and waits until /v1/healthz
// answers 200. The caller must stop the returned server.
func startServer(bin string, args []string, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, logPath: logPath, waited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: stop signals the child
		close(s.waited)
	}()
	// A fresh connection per probe: a refused connect must not leave a
	// pooled transport backing off.
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		select {
		case <-s.waited:
			return nil, fmt.Errorf("drainnet-serve exited during start-up; log kept at %s", logPath)
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("drainnet-serve not ready after 60s; log kept at %s", logPath)
		}
		// Short enough that the wait for the next probe is a few percent
		// of the fastest start (about 10 ms).
		time.Sleep(200 * time.Microsecond)
	}
}

// stop ends the child's whole process group: SIGTERM, then SIGKILL if
// it has not exited within 5 s. It returns once the child is reaped.
// Later calls do nothing, so a reused pid is never signalled.
func (s *server) stop() {
	s.stopped.Do(func() {
		pgid := -s.cmd.Process.Pid
		_ = syscall.Kill(pgid, syscall.SIGTERM) // ESRCH if it already exited
		select {
		case <-s.waited:
		case <-time.After(5 * time.Second):
			_ = syscall.Kill(pgid, syscall.SIGKILL)
			<-s.waited
		}
	})
}

// cpuSeconds is the child's user+system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(buf)
}

// parseProcStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(string(stat[i+1:])) // f[0] is field 3
	if len(f) < 13 {
		return 0, errors.New("proc stat: short line")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: bad utime/stime")
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMB is the child's VmHWM, the high-water mark of its resident
// set, in MiB.
func (s *server) peakRSSMB() (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(buf)
}

func parseVmHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("proc status: bad VmHWM %q", rest)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// getBody sends one request and returns the whole reply body. A reply
// with another status than want is an error that still carries the body;
// a nil body means the exchange itself failed.
func getBody(client *http.Client, method, url string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return out, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, url, resp.StatusCode, want, out)
	}
	return out, nil
}
