package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// profileLayers splits a CPU profile by layer, in seconds, using the
// toolchain's own pprof (`go tool pprof -traces`).
func profileLayers(path string) (map[string]float64, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ms", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	return parseTraces(bytes.NewReader(out))
}

// parseTraces reads `go tool pprof -traces` output — blocks separated by
// "-----------+" rules, each a right-aligned sample value beside the leaf
// frame, then one caller per line — and sums the values by layerOf.
func parseTraces(r io.Reader) (map[string]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	out := map[string]float64{}
	var value float64
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			out[layerOf(frames)] += value
		}
		frames, value = nil, 0
	}
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inBlock = true
			continue
		case !inBlock, strings.TrimSpace(line) == "", strings.Contains(line, ":  "):
			// Header lines, blank lines and sample labels ("key:  value").
			continue
		}
		if len(line) < 13 {
			return nil, fmt.Errorf("pprof traces: malformed line %q", line)
		}
		if v := strings.TrimSpace(line[:10]); v != "" {
			d, err := parseSampleValue(v)
			if err != nil {
				return nil, err
			}
			value = d
		}
		frames = append(frames, strings.TrimSuffix(strings.TrimSpace(line[10:]), " (inline)"))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return out, nil
}

// parseSampleValue converts a pprof time value ("10ms", "1.50s") to
// seconds.
func parseSampleValue(v string) (float64, error) {
	i := strings.IndexFunc(v, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if i <= 0 {
		return 0, fmt.Errorf("pprof traces: bad sample value %q", v)
	}
	x, err := strconv.ParseFloat(v[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("pprof traces: bad sample value %q: %w", v, err)
	}
	scale := map[string]float64{
		"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1,
		"min": 60, "mins": 60, "hr": 3600, "hrs": 3600,
	}[v[i:]]
	if scale == 0 {
		return 0, fmt.Errorf("pprof traces: unknown unit in %q", v)
	}
	return x * scale, nil
}

// layerOf attributes one stack, leaf first, to the layer of its
// innermost repro frame. Utility packages pass their samples to their
// caller; a stack with no layer frame is runtime.
func layerOf(frames []string) string {
	for _, f := range frames {
		pkg := packageOf(f)
		switch {
		case pkg == "main" || pkg == "repro/bench" || strings.HasPrefix(pkg, "repro/bench/"):
			return "loadgen"
		case !strings.HasPrefix(pkg, "repro/internal/"):
			continue
		}
		switch l := strings.TrimPrefix(pkg, "repro/internal/"); l {
		case "addr", "geo", "metrics":
			continue
		case "signature", "logevent":
			return "detect"
		default:
			return l
		}
	}
	return "runtime"
}

// packageOf returns the import path of a frame's function:
// "repro/internal/olsr.(*Node).processTC" → "repro/internal/olsr".
// Generic type arguments may themselves contain package paths, so they
// are cut first.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
