package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one relestd subprocess listening on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:PORT
	pid    string
	client *http.Client
	done   chan struct{} // closed when the stdout drain ends
	exited chan error    // receives cmd.Wait's result once
}

// startDaemon spawns relestd with the given flags on a free loopback
// port and waits for its "listening on" line.
func startDaemon(bin string, client *http.Client, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting relestd: %w", err)
	}
	d := &daemon{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), client: client,
		done: make(chan struct{}), exited: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "relestd listening on "); ok && !sent {
				addr <- a
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			err := d.stop()
			return nil, fmt.Errorf("relestd exited before listening (%v): %s", err, strings.TrimSpace(stderr.String()))
		}
		d.base = "http://" + a
		return d, nil
	case <-time.After(30 * time.Second):
		_ = d.stop()
		return nil, fmt.Errorf("relestd did not report its address within 30s")
	}
}

// stop sends SIGTERM, waits for the drain (SIGKILL after 20s) and reaps
// the process.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	go func() { d.exited <- d.cmd.Wait() }()
	select {
	case err := <-d.exited:
		<-d.done
		return err
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		err := <-d.exited
		<-d.done
		return fmt.Errorf("relestd ignored SIGTERM, killed: %v", err)
	}
}

// do sends one request and returns the status and the whole body.
func (d *daemon) do(method, path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// mustOK sends a set-up request and fails unless it answers 2xx.
func (d *daemon) mustOK(method, path, contentType string, body []byte) ([]byte, error) {
	status, raw, err := d.do(method, path, contentType, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, status, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

// scrape reads /metrics.
func (d *daemon) scrape() (promSample, error) {
	raw, err := d.mustOK(http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	return parseProm(string(raw))
}

// newClient returns an HTTP client that holds at most conns connections
// to the daemon, so the load generator never opens more than it has
// clients.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}
