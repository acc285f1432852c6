package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"logsynergy/internal/core"
	"logsynergy/internal/drain"
	"logsynergy/internal/embed"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
)

// TestMain lets the test binary act as the serving process the smoke
// runs start.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serverMain(os.Args[2:]); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCompletingLine checks the window-to-completing-line mapping against
// the pipeline itself: a key's n-th window is scored right after the key's
// completingLine(n)-th line is fed.
func TestCompletingLine(t *testing.T) {
	for _, tc := range []struct{ n, line int }{{1, 10}, {2, 15}, {3, 20}, {40, 205}} {
		if got := completingLine(tc.n); got != tc.line {
			t.Errorf("completingLine(%d) = %d, want %d", tc.n, got, tc.line)
		}
	}
	for _, tc := range []struct{ lines, windows int }{{0, 0}, {9, 0}, {10, 1}, {14, 1}, {15, 2}, {205, 40}} {
		if got := windowsAfter(tc.lines); got != tc.windows {
			t.Errorf("windowsAfter(%d) = %d, want %d", tc.lines, got, tc.windows)
		}
	}

	cfg := core.DefaultConfig()
	table := &repr.EventTable{System: "BGL", Dim: cfg.EmbedDim, Vectors: tensorRows(cfg.EmbedDim)}
	det := core.NewDetector(core.NewModel(cfg, 2), table)
	pcfg := pipeline.DefaultConfig(hint)
	pcfg.Metrics = obs.NewRegistry()
	pcfg.DetectBatch = 1 // score each window as soon as it completes
	k := pipeline.NewKeyed(pipeline.New(pcfg, drain.NewDefault(), det, lei.NewSimLLM(lei.Config{}), embed.New(cfg.EmbedDim), &pipeline.MemorySink{}))
	fed := 0
	var completedAt []int
	k.OnWindow = func(string, []int, float64, bool) { completedAt = append(completedAt, fed) }
	lines := newTraffic(workloads[0], 3).take(400)
	for _, l := range lines {
		if l.key != lines[0].key {
			continue
		}
		fed++
		k.Feed(keyName(l.key), l.text)
	}
	if len(completedAt) != windowsAfter(fed) {
		t.Fatalf("%d lines completed %d windows, want %d", fed, len(completedAt), windowsAfter(fed))
	}
	for i, at := range completedAt {
		if want := completingLine(i + 1); at != want {
			t.Errorf("window %d completed at line %d, want %d", i+1, at, want)
		}
	}
}

func tensorRows(dim int) *tensor.Tensor { return tensor.New(0, dim) }

// TestPercentile checks the nearest-rank percentile, its sample count, and
// the ten-beyond rule for reporting it.
func TestPercentile(t *testing.T) {
	var xs []float64
	for i := 1000; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if p, n := percentile(xs, 50); p != 500 || n != 1000 {
		t.Errorf("p50 = %v over %d, want 500 over 1000", p, n)
	}
	if p, _ := percentile(xs, 99); p != 990 {
		t.Errorf("p99 = %v, want 990", p)
	}
	if p, n := percentile(nil, 99); p != 0 || n != 0 {
		t.Errorf("empty p99 = %v over %d", p, n)
	}
	if p, _ := percentile([]float64{7}, 99); p != 7 {
		t.Errorf("single-sample p99 = %v", p)
	}
	// A chunk of latencyChunk samples leaves ten beyond its p99; fewer
	// samples report none, and at most eight chunks are cut.
	if got := len(chunkPercentiles(xs[:latencyChunk-1], 99, latencyChunk)); got != 0 {
		t.Errorf("%d samples gave %d chunk percentiles, want 0", latencyChunk-1, got)
	}
	if got := chunkPercentiles(xs[:latencyChunk], 99, latencyChunk); len(got) != 1 || got[0] != 990 {
		t.Errorf("one full chunk gave %v, want [990]", got)
	}
	many := make([]float64, 20*latencyChunk)
	if got := len(chunkPercentiles(many, 50, latencyChunk)); got != 8 {
		t.Errorf("%d samples gave %d chunks, want 8", len(many), got)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if f := windowF1([]bool{true, true, false, false}, []bool{true, false, true, false}); f != 0.5 {
		t.Errorf("F1 = %v, want 0.5", f)
	}
}

// TestTrafficDeterminism checks that a seed fixes every workload's input,
// and that another seed changes it.
func TestTrafficDeterminism(t *testing.T) {
	for _, w := range workloads {
		a := newTraffic(w, 5).take(3000)
		b := newTraffic(w, 5).take(3000)
		c := newTraffic(w, 6).take(3000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 5 generated two different inputs", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 5 and 6 generated the same input", w.name)
		}
	}
}

// TestSteadyCyclesRepeat checks that steady-cycles replays each key's
// segment: the same shape and label every segmentLines lines, with fresh
// digits.
func TestSteadyCyclesRepeat(t *testing.T) {
	lines := newTraffic(workloads[1], 9).take(40 * segmentLines)
	perKey := map[int][]benchLine{}
	for _, l := range lines {
		perKey[l.key] = append(perKey[l.key], l)
	}
	changed := 0
	for key, ls := range perKey {
		for i := segmentLines; i < len(ls); i++ {
			a, b := ls[i-segmentLines], ls[i]
			if a.anom != b.anom || shape(a.text) != shape(b.text) {
				t.Fatalf("key %d line %d: %q does not replay %q", key, i, b.text, a.text)
			}
			if a.text != b.text {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Error("replayed lines never carried fresh values")
	}
}

// shape blanks the digits of a line.
func shape(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= '0' && b[i] <= '9' {
			b[i] = '#'
		}
	}
	return string(b)
}

// benchManifest is the part of BENCHMARK.json the tests check.
type benchManifest struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []manifestMetric             `json:"end_to_end"`
	PerLayer  []manifestMetric             `json:"per_layer"`
}

type manifestMetric struct{ Name, Unit string }

func readManifest(t *testing.T) benchManifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m benchManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// units maps each manifest metric to its unit.
func units(ms []manifestMetric) map[string]string {
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestManifestWorkloads checks that every BENCHMARK.json workload is one
// of the program's, with the reason the program prints.
func TestManifestWorkloads(t *testing.T) {
	for _, got := range readManifest(t).Workloads {
		w, err := findWorkload(got.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		if got.Why != w.why {
			t.Errorf("BENCHMARK.json gives %s the reason %q, the program %q", got.Name, got.Why, w.why)
		}
	}
}

// TestSmoke runs each workload end to end on a small input: set-up, the
// closed and open loops, the correctness gate, and (traced) the per-layer
// pass. Every reported metric must be present.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bundle per workload")
	}
	m := readManifest(t)
	for _, tc := range []struct {
		w     workload
		trace bool
	}{{workloads[0], false}, {workloads[0], true}, {workloads[1], true}, {workloads[2], true}} {
		w := tc.w
		// Two seconds of open loop: enough windows for a p99.
		w.drainLines, w.rate = 2000, 3000
		t.Run(w.name, func(t *testing.T) {
			tr := newTraffic(w, 1)
			closed, open := tr.take(w.drainLines), tr.take(2*int(w.rate))
			dir := t.TempDir()
			spans := ""
			if tc.trace {
				spans = filepath.Join(dir, "spans.csv")
			}
			r := &run{w: w, trace: tc.trace}
			res, err := r.execute(filepath.Join(dir, "run"), 1, spans, closed, open)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != len(closed)+len(open) {
				t.Fatalf("correct %v, %d of %d lines failed", res.Correct, res.Failed, res.Attempted)
			}
			want := units(m.EndToEnd)
			if tc.trace {
				want = units(m.PerLayer)
			}
			got := make(map[string]string, len(res.Metrics))
			for k, v := range res.Metrics {
				got[k] = v.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("metric units %v, want %v", got, want)
			}
			if tc.trace {
				if _, err := os.Stat(spans); err != nil {
					t.Errorf("spans not written: %v", err)
				}
			}
		})
	}
}

// TestFatalCapture checks that a dying serving process's fatal header is
// kept whichever way its stderr arrives in writes.
func TestFatalCapture(t *testing.T) {
	var f fatalCapture
	for _, chunk := range []string{"serving\nfatal error: concurrent ", "map writes\n\ngoroutine 7 [running]:\n", "panic: later\n"} {
		f.Write([]byte(chunk))
	}
	if got, want := f.header(), "fatal error: concurrent map writes"; got != want {
		t.Errorf("header %q, want %q", got, want)
	}
}
