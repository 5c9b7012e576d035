package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one running dbsserve process.
type child struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// startServer launches bin on a free loopback port with flags and the
// positional args, and returns once /healthz answers 200.
func startServer(bin string, flags, args []string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	argv := append([]string{"-addr", addr}, flags...)
	argv = append(argv, args...)
	cmd := exec.Command(bin, argv...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	// The child dies with the benchmark even if the benchmark is killed or
	// its watchdog abandons the run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dbsserve: %w", err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		close(c.done)
	}()
	if err := c.waitReady(30 * time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (c *child) waitReady(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return fmt.Errorf("dbsserve exited during start-up: %v", c.err)
		default:
		}
		resp, err := hc.Get(c.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("dbsserve not ready after %v", limit)
}

// stop asks the child to drain (SIGTERM) and waits for it to exit,
// killing it if the drain takes too long.
func (c *child) stop() {
	select {
	case <-c.done:
		return
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// peakRSSMB reads the child's peak resident set (VmHWM) in MiB.
func (c *child) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// client is one HTTP connection's worth of requests: its own transport
// with a single keep-alive connection, so each logical client in a
// workload holds exactly one connection.
type client struct {
	base   string
	tenant string
	hc     *http.Client
}

func newClient(base, tenant string) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, tenant: tenant, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (c *client) do(method, path, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if c.tenant != "" {
		req.Header.Set("X-DBS-Tenant", c.tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}

// scrape reads /metrics into a map from series (name plus labels, with
// the exporter's "dbs_" prefix removed) to value.
func scrape(c *client) (map[string]float64, error) {
	code, body, err := c.do(http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", code)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimPrefix(line[:i], "dbs_")] = v
	}
	return out, nil
}
