package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// profile is one CPU profile of a traced run, written under the work
// directory and read back with the toolchain's `go tool pprof`.
type profile struct {
	path string
	f    *os.File
}

func startProfile(dir, name string) (*profile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("cpu-%s-%d.pprof", name, os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	// 500 samples per CPU-second: enough to split a lightly loaded run
	// across layers. (The runtime notes on stderr that the rate was set
	// before the profile started; it is applied.)
	runtime.SetCPUProfileRate(500)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{path: path, f: f}, nil
}

// stop ends profiling and returns each layer's share of the profile's
// CPU samples.
func (p *profile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	defer os.Remove(p.path)
	out, err := exec.Command("go", "tool", "pprof", "-traces", p.path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return layerFracs(out)
}

// layers lists the package prefixes whose CPU share the traced run
// reports, keyed by metric name.
var layers = []struct{ metric, prefix string }{
	{"sim.cpu_frac", "speakup/internal/sim."},
	{"sim.cpu_frac", "speakup/internal/simclock."},
	{"netsim.cpu_frac", "speakup/internal/netsim."},
	{"tcpsim.cpu_frac", "speakup/internal/tcpsim."},
	{"appsim.cpu_frac", "speakup/internal/appsim."},
	{"clients.cpu_frac", "speakup/internal/clients."},
	{"server.cpu_frac", "speakup/internal/server."},
	{"core.cpu_frac", "speakup/internal/core."},
	{"wire.cpu_frac", "speakup/internal/wire."},
	{"web.cpu_frac", "speakup/internal/web."},
	{"nethttp.cpu_frac", "net/http."},
	{"loadgen.cpu_frac", "speakup/internal/loadgen."},
	// The benchmark's own generator code is the load generator too.
	{"loadgen.cpu_frac", "main."},
}

// gcRoots mark a stack as garbage-collector work wherever it sits.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.markroot",
}

// sysLeaves mark a sample whose leaf frame is a system call.
var sysLeaves = []string{
	"syscall.", "internal/runtime/syscall.", "runtime.futex", "runtime.epollwait",
	"runtime.usleep", "runtime.write1", "runtime.read", "runtime.nanotime1",
	"runtime.madvise", "runtime.mmap", "runtime.munmap", "runtime.osyield",
	"runtime.sched_yield", "runtime.tgkill", "runtime.sigprocmask", "runtime.rtsigprocmask",
}

// classify names the metric a sample's stack (leaf first) counts for:
// GC work and system calls are kept apart; otherwise the innermost
// frame of a listed layer wins, so runtime helpers a layer calls
// (memmove, map access, channel operations) count for that layer.
// Samples of no listed layer return "".
func classify(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcRoots {
			if fn == g {
				return "runtime.gc_cpu_frac"
			}
		}
	}
	if len(stack) > 0 {
		for _, s := range sysLeaves {
			if strings.HasPrefix(stack[0], s) {
				return "runtime.sys_cpu_frac"
			}
		}
	}
	for _, fn := range stack {
		for _, l := range layers {
			if strings.HasPrefix(fn, l.prefix) {
				return l.metric
			}
		}
	}
	return ""
}

// layerFracs parses `go tool pprof -traces` output — blocks separated
// by dashed lines, the first line of each holding the sample value and
// the leaf frame — and returns each layer's share of all samples.
func layerFracs(out []byte) (map[string]float64, error) {
	fracs := make(map[string]float64)
	for _, l := range layers {
		fracs[l.metric] = 0
	}
	fracs["runtime.gc_cpu_frac"] = 0
	fracs["runtime.sys_cpu_frac"] = 0

	var total time.Duration
	var value time.Duration
	var stack []string
	flush := func() {
		if value > 0 && len(stack) > 0 {
			total += value
			if m := classify(stack); m != "" {
				fracs[m] += float64(value)
			}
		}
		value, stack = 0, nil
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 && value == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue // a label line
			}
			value = d
			stack = append(stack, fields[1])
			continue
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: the profile holds no samples")
	}
	for k, v := range fracs {
		fracs[k] = v / float64(total)
	}
	return fracs, nil
}
