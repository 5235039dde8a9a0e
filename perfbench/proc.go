package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running powerplay process.
type proc struct {
	cmd  *exec.Cmd
	url  string // http://host:port it listens on
	done chan struct{}
}

var (
	procsMu sync.Mutex
	procs   = map[*proc]bool{}
)

// startProc runs the binary and waits until it logs its bound address.
// Every process listens on port 0, so concurrent runs never collide.
func startProc(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	procsMu.Lock()
	procs[p] = true
	procsMu.Unlock()

	ready := make(chan string, 1)
	var tail []string
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent {
				tail = append(tail, line)
				if i := strings.Index(line, "url=http://"); i >= 0 && strings.Contains(line, "listening") {
					ready <- strings.Fields(line[i+len("url="):])[0]
					sent = true
				}
			}
		}
		cmd.Wait()
		close(p.done)
	}()
	select {
	case u := <-ready:
		p.url = u
		return p, nil
	case <-p.done:
		p.forget()
		return nil, fmt.Errorf("%s exited before listening: %s", filepath.Base(bin), strings.Join(tail, " | "))
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s did not start within 60s", filepath.Base(bin))
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop asks for a graceful shutdown (final snapshots), then kills.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.forget()
}

// kill is kill -9: the crash a durable site must recover from.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
	p.forget()
}

func (p *proc) forget() {
	procsMu.Lock()
	delete(procs, p)
	procsMu.Unlock()
}

// stopAll kills every process still running and waits for each.
func stopAll() {
	procsMu.Lock()
	var live []*proc
	for p := range procs {
		live = append(live, p)
	}
	procsMu.Unlock()
	for _, p := range live {
		p.kill()
	}
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
