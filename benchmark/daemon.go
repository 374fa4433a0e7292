package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// daemonBinary locates the rethinkd binary: the flag, else a sibling of
// this executable (run.sh builds it there), else built from source into
// outDir.
func daemonBinary(flagPath, outDir string) (string, error) {
	if flagPath != "" {
		return flagPath, nil
	}
	if self, err := os.Executable(); err == nil {
		sib := filepath.Join(filepath.Dir(self), "rethinkd")
		if st, err := os.Stat(sib); err == nil && !st.IsDir() {
			return sib, nil
		}
	}
	return buildDaemon(outDir)
}

// buildDaemon compiles cmd/rethinkd into dir. It must run inside the
// benchmark module (or the repro module), which is where go resolves
// the package path from.
func buildDaemon(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(abs, "rethinkd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/rethinkd")
	if atRepoRoot() {
		cmd.Dir = "benchmark"
	}
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build rethinkd: %v: %s", err, out)
	}
	return bin, nil
}

// daemon is one spawned rethinkd child on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	logs bytes.Buffer
}

// startDaemon spawns rethinkd with the given flags on a free loopback
// port and returns once /healthz answers 200.
func startDaemon(bin string, args ...string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	d := &daemon{base: "http://" + addr}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = &d.logs, &d.logs
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("rethinkd did not become healthy: %s", d.logs.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks the child to drain, kills it if it does not, and waits
// until it has ended.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

func (d *daemon) peakRSSMB() float64 { return peakRSSMB(d.cmd.Process.Pid) }

// conn is one client connection: an HTTP client pinned to a single
// keep-alive TCP connection, authenticating as one tenant.
type conn struct {
	client *http.Client
	base   string
	key    string
}

func newConn(base, key string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &conn{client: &http.Client{Transport: tr}, base: base, key: key}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// post sends a JSON body and returns the raw response body; a transport
// error or a non-200 status is an error.
func (c *conn) post(ctx context.Context, path string, body any) ([]byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := c.send(ctx, path, data)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// send posts data and returns the open response after checking its
// status; the caller closes the body.
func (c *conn) send(ctx context.Context, path string, data []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", c.base+path, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.key)
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
	}
	return resp, nil
}

// getJSON fetches a JSON document.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
