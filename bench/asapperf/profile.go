package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// Layers the CPU profile is split into. Every sample lands in exactly one
// of them, so their shares sum to 1.
var profileLayers = []string{
	"runtime.sched", "runtime.alloc", "runtime.gc",
	"sim", "cache", "core", "memdev", "wal", "schemes", "workload",
	"heap", "stats", "machine", "harness", "obs", "other",
}

// allocLayers are the layers whose allocation (runtime.alloc samples with
// that layer as the nearest caller) is reported as <layer>.alloc_share.
var allocLayers = []string{"cache", "core", "memdev", "schemes", "workload", "machine", "harness", "obs"}

// groupedPkgs are asap/internal packages reported under another layer's
// name: the harness runs the experiment matrix rather than simulating,
// and obs covers the observers that produce asapd's job artifacts.
var groupedPkgs = map[string]string{
	"experiment": "harness", "runner": "harness", "sweep": "harness", "report": "harness",
	"trace": "obs",
}

// sample is one stack from `go tool pprof -traces`: its CPU time and its
// frames, leaf first, with " (inline)" markers removed.
type sample struct {
	value  time.Duration
	frames []string
}

// parseTraces reads the text that `go tool pprof -traces` prints: a
// header, then blocks separated by dashed rules, each starting with the
// sample value and the leaf frame on one line and the callers below it.
func parseTraces(r io.Reader) ([]sample, error) {
	var out []sample
	inBody, blockStart := false, false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inBody, blockStart = true, true
			continue
		}
		trimmed := strings.TrimSpace(line)
		if !inBody || trimmed == "" {
			continue
		}
		if blockStart {
			blockStart = false
			v, frame, _ := strings.Cut(trimmed, " ")
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			out = append(out, sample{value: d, frames: []string{cleanFrame(frame)}})
			continue
		}
		last := &out[len(out)-1]
		last.frames = append(last.frames, cleanFrame(trimmed))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading pprof traces: %w", err)
	}
	return out, nil
}

func cleanFrame(f string) string {
	return strings.TrimSuffix(strings.TrimSpace(f), " (inline)")
}

// pkgOf returns the import path of a frame's function: the text before
// the first dot that follows the last slash, ignoring generic type
// arguments ("runner.collect[go.shape.struct {...}].func1").
func pkgOf(frame string) string {
	name, _, _ := strings.Cut(frame, "[")
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return name[:slash+1+dot]
}

// asapLayer maps a frame to its layer if it belongs to asap/internal.
func asapLayer(frame string) (string, bool) {
	pkg, ok := strings.CutPrefix(pkgOf(frame), "asap/internal/")
	if !ok {
		return "", false
	}
	if l, ok := groupedPkgs[pkg]; ok {
		return l, true
	}
	for _, l := range profileLayers {
		if l == pkg {
			return l, true
		}
	}
	return "other", true
}

// isRuntime reports whether a frame is Go runtime code. The runtime's
// map implementation is left out: a map lookup is work for whoever owns
// the map, like any other library call.
func isRuntime(frame string) bool {
	pkg := pkgOf(frame)
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"):
		return true
	case pkg == "internal/runtime/maps":
		return false
	case strings.HasPrefix(pkg, "internal/runtime/"):
		return true
	}
	// Assembly helpers such as gcWriteBarrier carry no package.
	return pkg == "" && strings.HasPrefix(frame, "gc")
}

// isGC reports whether a frame does garbage-collector work: mark workers,
// mark assists, background sweeping and scavenging, and write-barrier
// buffer flushes.
func isGC(frame string) bool {
	for _, m := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.wbBufFlush", "gcWriteBarrier"} {
		if strings.HasPrefix(frame, m) {
			return true
		}
	}
	return false
}

// isHandoff reports whether the runtime was entered to block or wake a
// goroutine: channel operations, select, and sync primitives. The
// simulation kernel switches simulated threads this way, so this is
// scheduling cost, not the calling layer's own work.
func isHandoff(frame string) bool {
	if strings.HasPrefix(pkgOf(frame), "sync") {
		return true
	}
	for _, m := range []string{"runtime.chan", "runtime.select", "runtime.closechan", "runtime.gopark",
		"runtime.Gosched", "runtime.goready", "runtime.sema", "runtime.park_m", "runtime.mcall"} {
		if strings.HasPrefix(frame, m) {
			return true
		}
	}
	return false
}

// classify assigns one stack to a layer, and for allocation samples to
// the layer whose code allocated:
//
//   - any GC frame on the stack: runtime.gc;
//   - runtime.mallocgc on the stack: runtime.alloc, credited to the
//     nearest asap/internal caller;
//   - an asap/internal leaf: its package's layer;
//   - any other leaf is charged to the nearest asap/internal caller,
//     unless the path to it enters the runtime through a channel, select
//     or sync call, or there is no such caller and the leaf is runtime
//     code: runtime.sched;
//   - everything else (a library leaf with no asap caller): other.
func classify(frames []string) (layer, allocBy string) {
	caller, callerAt := "", -1
	for i, f := range frames {
		if l, ok := asapLayer(f); ok {
			caller, callerAt = l, i
			break
		}
	}
	for _, f := range frames {
		if isGC(f) {
			return "runtime.gc", ""
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.mallocgc") {
			return "runtime.alloc", caller
		}
	}
	if callerAt == 0 {
		return caller, ""
	}
	if callerAt < 0 {
		if isRuntime(frames[0]) {
			return "runtime.sched", ""
		}
		return "other", ""
	}
	for _, f := range frames[:callerAt] {
		if isHandoff(f) {
			return "runtime.sched", ""
		}
	}
	return caller, ""
}

// layerShares turns samples into per_layer metrics: <layer>.self_share
// for every layer (runtime ones as runtime.<kind>_share),
// <layer>.alloc_share, and trace.samples at the default 100 Hz rate.
func layerShares(samples []sample) map[string]float64 {
	self := map[string]time.Duration{}
	alloc := map[string]time.Duration{}
	var total time.Duration
	for _, s := range samples {
		layer, by := classify(s.frames)
		self[layer] += s.value
		if by != "" {
			alloc[by] += s.value
		}
		total += s.value
	}
	out := map[string]float64{"trace.samples": float64(total / (10 * time.Millisecond))}
	share := func(d time.Duration) float64 {
		if total == 0 {
			return 0
		}
		return float64(d) / float64(total)
	}
	for _, l := range profileLayers {
		out[selfShareName(l)] = share(self[l])
	}
	for _, l := range allocLayers {
		out[l+".alloc_share"] = share(alloc[l])
	}
	return out
}

// selfShareName names a layer's self-time metric: <layer>.self_share, or
// runtime.<kind>_share for the runtime's three parts.
func selfShareName(layer string) string {
	if kind, ok := strings.CutPrefix(layer, "runtime."); ok {
		return "runtime." + kind + "_share"
	}
	return layer + ".self_share"
}

// profiled runs fn under a CPU profile and returns the layer shares of
// the samples taken while it ran.
func profiled(fn func() error) (map[string]float64, error) {
	f, err := os.CreateTemp("", "asapperf-*.prof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if ferr != nil {
		return nil, ferr
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", f.Name())
	txt, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	samples, err := parseTraces(bytes.NewReader(txt))
	if err != nil {
		return nil, err
	}
	return layerShares(samples), nil
}
