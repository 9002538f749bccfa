package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"

	"skyscraper/internal/server"
)

// The child process speaks a line protocol: it prints one JSON line when
// ready, then answers each "usage" line on stdin with a usage JSON line,
// each "go" line with its work's result line, and exits when stdin
// closes.

// readyMsg is the child's first line: in server mode the control and
// status addresses and the time server.New+Start took, in sweep mode the
// scheme set it built. A child that fails prints its error to stderr and
// exits without one.
type readyMsg struct {
	Addr    string      `json:"addr,omitempty"`
	Status  string      `json:"status,omitempty"`
	StartMS float64     `json:"start_ms,omitempty"`
	Sweep   *sweepReady `json:"sweep,omitempty"`
}

// childMain is the child-process entry point (-child server|sweep).
func childMain(mode string, sp spec, seed uint64, round int) error {
	out := bufio.NewWriter(os.Stdout)
	emit := func(v any) error {
		if err := json.NewEncoder(out).Encode(v); err != nil {
			return err
		}
		return out.Flush()
	}
	var ready readyMsg
	var work func() any
	switch mode {
	case "server":
		cfg, err := sp.serverConfig(seed, round)
		if err != nil {
			return err
		}
		t0 := time.Now()
		srv, err := server.New(cfg)
		if err != nil {
			return err
		}
		if err := srv.Start(); err != nil {
			return err
		}
		ready.StartMS = ms(time.Since(t0))
		defer srv.Close()
		url, err := srv.ServeStatus()
		if err != nil {
			return err
		}
		ready.Addr, ready.Status = srv.Addr(), url
	case "sweep":
		sw, err := newSweepChild(sp, seed, round)
		if err != nil {
			return err
		}
		ready.Sweep = sw.ready
		work = func() any { return sw.run() }
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	if err := emit(ready); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		var err error
		switch in.Text() {
		case "usage":
			err = emit(selfUsage())
		case "go":
			if work == nil {
				return errors.New("child: nothing to run")
			}
			err = emit(work())
		}
		if err != nil {
			return err
		}
	}
	return in.Err()
}

// child is the parent's handle on a running child process.
type child struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	ready readyMsg
	mu    sync.Mutex // serializes request/reply pairs
	ended sync.Once  // the child is waited for exactly once
}

// children tracks every live child so the watchdog can kill them all.
var children struct {
	sync.Mutex
	live map[*child]struct{}
}

// startChild launches this executable in child mode with GOMAXPROCS
// pinned, and waits for its ready line.
func startChild(mode string, sp spec, seed uint64, round, procs int) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", mode, "-workload", sp.name,
		"-seed", strconv.FormatUint(seed, 10), "-round", strconv.Itoa(round))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s child: %w", mode, err)
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewReaderSize(outPipe, 1<<16)}
	children.Lock()
	if children.live == nil {
		children.live = map[*child]struct{}{}
	}
	children.live[c] = struct{}{}
	children.Unlock()
	if err := c.readLine(&c.ready); err != nil {
		c.kill()
		return nil, fmt.Errorf("%s child ready: %w", mode, err)
	}
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) readLine(v any) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// request sends one command line and decodes the reply line into v.
func (c *child) request(cmd string, v any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := io.WriteString(c.in, cmd+"\n"); err != nil {
		return fmt.Errorf("child %s: %w", cmd, err)
	}
	if err := c.readLine(v); err != nil {
		return fmt.Errorf("child %s reply: %w", cmd, err)
	}
	return nil
}

func (c *child) usage() (usage, error) {
	var u usage
	err := c.request("usage", &u)
	return u, err
}

// stop closes the child's stdin and waits for it to exit, killing it if
// it has not exited within a few seconds.
func (c *child) stop() error {
	var err error
	c.ended.Do(func() {
		_ = c.cmd.Process.Signal(syscall.SIGCONT)
		_ = c.in.Close()
		exited := make(chan error, 1)
		go func() { exited <- c.cmd.Wait() }()
		select {
		case err = <-exited:
		case <-time.After(10 * time.Second):
			_ = c.cmd.Process.Kill()
			<-exited
			err = errors.New("child did not exit; killed")
		}
		c.forget()
	})
	return err
}

// kill ends the child at once unless it has already been stopped (error
// paths, deferred cleanup).
func (c *child) kill() {
	c.ended.Do(func() {
		_ = c.cmd.Process.Kill()
		_ = c.in.Close()
		_ = c.cmd.Wait()
		c.forget()
	})
}

func (c *child) forget() {
	children.Lock()
	delete(children.live, c)
	children.Unlock()
}

// killChildren kills every live child; the watchdog calls it before
// exiting so no server process outlives the benchmark.
func killChildren() {
	children.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		_ = c.cmd.Process.Kill()
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
