package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const serverPkg = "github.com/twolayer/twolayer/cmd/spatialserver"

// moduleDir returns the directory of the benchmark's own module, where
// out/ lives.
func moduleDir() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside the benchmark module (go env GOMOD is empty)")
	}
	return filepath.Dir(gomod), nil
}

// buildServer compiles cmd/spatialserver from the checkout's source into
// outDir and returns the binary's path. The go build cache makes a
// repeat build a sub-second no-op.
func buildServer(outDir string) (string, error) {
	bin := filepath.Join(outDir, "spatialserver")
	cmd := exec.Command("go", "build", "-o", bin, serverPkg)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build %s: %w\n%s", serverPkg, err, stderr.String())
	}
	return bin, nil
}

// children are the server processes now running, so that an interrupt
// can end them.
var children struct {
	sync.Mutex
	procs map[*serverProc]struct{}
}

// killChildren ends every running server and waits for it.
func killChildren() {
	children.Lock()
	procs := make([]*serverProc, 0, len(children.procs))
	for p := range children.procs {
		procs = append(procs, p)
	}
	children.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// removeRunDirs deletes the scratch directories runs leave in outDir
// when they are interrupted.
func removeRunDirs(outDir string) {
	dirs, _ := filepath.Glob(filepath.Join(outDir, "run-*"))
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// serverProc is one running spatialserver child.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once the process has been waited for
	// readyIn is exec → first 200 on /healthz.
	readyIn time.Duration
	// readyAt is when that 200 arrived.
	readyAt time.Time
	stderr  *bytes.Buffer
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs the server with the given flags plus -addr and
// -log-level warn, and waits for the first 200 on /healthz.
func startServer(bin string, flags []string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-log-level", "warn"}, flags...)
	p := &serverProc{cmd: exec.Command(bin, args...), addr: addr, stderr: &bytes.Buffer{}}
	p.cmd.Stderr = p.stderr
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	p.exited = make(chan struct{})
	children.Lock()
	if children.procs == nil {
		children.procs = make(map[*serverProc]struct{})
	}
	children.procs[p] = struct{}{}
	children.Unlock()
	go func() {
		p.cmd.Wait()
		children.Lock()
		delete(children.procs, p)
		children.Unlock()
		close(p.exited)
	}()
	c := newClient(addr)
	defer c.close()
	deadline := start.Add(120 * time.Second)
	for {
		if status, _, err := c.get("/healthz"); err == nil && status == 200 {
			p.readyAt = time.Now()
			p.readyIn = p.readyAt.Sub(start)
			return p, nil
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("spatialserver %v exited before serving: %s", args, p.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("spatialserver %v not healthy after %v: %s", args, time.Since(start), p.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// kill sends SIGKILL, waits for the process to end and returns when the
// signal was sent.
func (p *serverProc) kill() time.Time {
	at := time.Now()
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.exited
	return at
}

// rssPeakMB reads the process's resident-set high-water mark.
func (p *serverProc) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// cpuSeconds reads the user+system CPU time the process has used.
func (p *serverProc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the parenthesis that closes it.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	const clockTicks = 100 // USER_HZ on every Linux this runs on
	return (utime + stime) / clockTicks, nil
}
