package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"logsynergy/internal/logdata"
	"logsynergy/internal/window"
)

// numKeys is the number of stream keys every workload spreads its lines
// over; each key is an independent log stream with its own window state.
const numKeys = 32

// segmentSeed seeds the generators that record the steady-cycles
// segments. The segments are the same for every workload seed (which
// still picks the key interleaving and the fresh values), so the windows
// the library learns, and the alerts, do not vary from seed to seed.
const segmentSeed = 1

// segmentLines is the length of the recorded per-key segment that
// steady-cycles traffic loops over. It is a multiple of the window step,
// so every pass completes windows at the same segment positions.
const segmentLines = 200

// workload is one traffic mix the benchmark can drive.
type workload struct {
	name string
	// why records the reason the workload exists: the predicted pattern
	// library hit ratio and the layers it loads.
	why string
	// steady loops a recorded segment per key instead of generating
	// fresh lines, so windows repeat and the pattern library answers them.
	steady bool
	// fleet posts through the cluster front router to two in-process
	// nodes instead of the single-process runtime's intake.
	fleet bool
	// drainLines is the closed-loop corpus size.
	drainLines int
	// rate is the open-loop offered load in lines per second, a fifth to
	// a third of the workload's drain rate on a 2-CPU machine: low enough
	// that CPU time lost to neighbours does not push the queue to the knee.
	rate float64
}

var workloads = []workload{
	{
		name:       "fresh-traffic",
		why:        "each key runs its own BGL generator, so windows almost never repeat (pattern hits ~0.05) and core scoring dominates",
		drainLines: 40000,
		rate:       2000,
	},
	{
		name:       "steady-cycles",
		why:        "each key loops a recorded 200-line BGL segment with fresh values, so windows repeat (pattern hits ~0.97) and broker/shard/drain dominate; its traced run also prices the router hop",
		steady:     true,
		drainLines: 200000,
		rate:       12000,
	},
	{
		name:       "fleet-hop",
		why:        "steady-cycles traffic through cluster.Router to 2 loopback nodes, so the router hop and share encoding are a large share of the time",
		steady:     true,
		fleet:      true,
		drainLines: 80000,
		rate:       10000,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// benchLine is one generated line: the stream key index, the raw line
// the program sees, and the ground-truth label the program never sees.
type benchLine struct {
	key  int
	text string
	anom bool
}

// keyName renders key index i as its numeric stream id. Pure integers
// mask to a wildcard under Drain, so the key token never splits templates.
func keyName(i int) string { return strconv.Itoa(7001 + i) }

// keyIndex is the inverse of keyName.
func keyIndex(name string) (int, bool) {
	n, err := strconv.Atoi(name)
	i := n - 7001
	return i, err == nil && i >= 0 && i < numKeys
}

// traffic generates a workload's keyed lines deterministically from the
// workload seed.
type traffic struct {
	pick *rand.Rand // chooses the key of each line
	gens []*logdata.Generator
	// steady-cycles only: the recorded segment per key, the next
	// position in it, and the source of fresh parameter values.
	segments [][]logdata.Line
	pos      []int
	values   *rand.Rand
}

func newTraffic(w workload, seed int64) *traffic {
	t := &traffic{
		pick:   rand.New(rand.NewSource(seed)),
		values: rand.New(rand.NewSource(seed ^ 0x5eed)),
	}
	spec := logdata.BGL()
	genSeed := seed
	if w.steady {
		genSeed = segmentSeed
	}
	for i := 0; i < numKeys; i++ {
		t.gens = append(t.gens, logdata.NewGenerator(spec, genSeed*1_000_003+int64(i)))
	}
	if w.steady {
		t.pos = make([]int, numKeys)
		for _, g := range t.gens {
			seg := make([]logdata.Line, segmentLines)
			for j := range seg {
				seg[j] = g.Next()
			}
			t.segments = append(t.segments, seg)
		}
	}
	return t
}

// next returns the next line of the stream.
func (t *traffic) next() benchLine {
	k := t.pick.Intn(numKeys)
	var l logdata.Line
	if t.segments != nil {
		l = t.segments[k][t.pos[k]]
		l.Message = freshDigits(l.Message, t.values)
		t.pos[k] = (t.pos[k] + 1) % segmentLines
	} else {
		l = t.gens[k].Next()
	}
	return benchLine{key: k, text: keyName(k) + " " + l.Message, anom: l.Anomalous}
}

// take returns the next n lines.
func (t *traffic) take(n int) []benchLine {
	out := make([]benchLine, n)
	for i := range out {
		out[i] = t.next()
	}
	return out
}

// freshDigits rewrites every decimal digit of a recorded message with a
// random one (a multi-digit run keeps a non-zero lead), so a replayed
// line carries new parameter values in the same shape: the same
// template, different ids, addresses, ports and counters.
func freshDigits(msg string, rng *rand.Rand) string {
	b := []byte(msg)
	for i := range b {
		if b[i] < '0' || b[i] > '9' {
			continue
		}
		lead := i == 0 || b[i-1] < '0' || b[i-1] > '9'
		runLen := i+1 < len(b) && b[i+1] >= '0' && b[i+1] <= '9'
		if lead && runLen {
			b[i] = byte('1' + rng.Intn(9))
		} else {
			b[i] = byte('0' + rng.Intn(10))
		}
	}
	return string(b)
}

// completingLine returns which of a key's lines (1-based) completes the
// key's n-th window (1-based): the first window needs Length lines and
// every later one Step more.
func completingLine(n int) int {
	return windowCfg.Length + windowCfg.Step*(n-1)
}

// windowsAfter returns how many windows a key has completed after its
// first lines lines.
func windowsAfter(lines int) int {
	if lines < windowCfg.Length {
		return 0
	}
	return (lines-windowCfg.Length)/windowCfg.Step + 1
}

// windowCfg is the deployment's window segmentation (paper: length 10,
// step 5).
var windowCfg = window.Default()
