package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one adt serve child process.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan error // receives cmd.Wait's result once
}

var listeningRe = regexp.MustCompile(`listening on (http://\S+)`)

// bootServer starts `adt serve` with default flags on a free loopback
// port and returns once GET /healthz has answered 200. The returned
// duration runs from exec to that first 200.
func bootServer(adt string) (*server, time.Duration, error) {
	cmd := exec.Command(adt, "serve", "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, however it exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", adt, err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		// Read stdout to EOF so the child never blocks on a full pipe;
		// Wait runs only after the pipe is drained.
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if m := listeningRe.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
		io.Copy(io.Discard, out)
		if !sent {
			close(addr)
		}
		s.done <- cmd.Wait()
	}()
	select {
	case u, ok := <-addr:
		if !ok {
			return nil, 0, fmt.Errorf("adt serve exited before listening: %v", <-s.done)
		}
		s.url = u
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("adt serve did not start listening within 30s")
	}
	probe := &http.Client{Timeout: 5 * time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := probe.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("adt serve: /healthz not 200 within 30s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
	probe.CloseIdleConnections()
	return s, time.Since(start), nil
}

// stop shuts the server down gracefully (SIGTERM), kills it if it has
// not exited after ten seconds, and waits for it either way.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// procStats reads the server's peak resident set (VmHWM, in bytes) and
// its user plus system CPU time.
func (s *server) procStats() (peakRSS int64, cpu time.Duration, err error) {
	pid := s.cmd.Process.Pid
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			peakRSS = kb << 10
		}
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line, in clock ticks.
	rest := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
	if len(rest) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseInt(rest[11], 10, 64)
	stime, _ := strconv.ParseInt(rest[12], 10, 64)
	const clockTicks = 100 // USER_HZ on Linux
	return peakRSS, time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// scrape fetches the GET /metrics page.
func scrape(c *http.Client, url string) (string, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return "", fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("reading /metrics: %w", err)
	}
	return string(page), nil
}

// parseExposition returns every sample of a /metrics page by its full
// series name (metric name plus label set).
func parseExposition(page string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(page, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// delta is after minus before for one series.
func delta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}

// sumPrefix sums after minus before over every series starting with
// prefix.
func sumPrefix(before, after map[string]float64, prefix string) float64 {
	total := 0.0
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			total += v - before[k]
		}
	}
	return total
}
