// Command perfbench is the repository benchmark. It trains the fixed-seed
// bundle, serves it the way `logsynergy serve -shards 2` does (or as a
// two-node fleet behind the front router), drives one workload at it over
// the public /ingest handler, checks every verdict bit for bit against a
// single-goroutine reference, and prints each metric by name and unit.
// The last line of standard output is the JSON result.
//
//	perfbench --workload fresh-traffic --seed 1 --seconds 8 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, from a separate single-goroutine traced run over the
// same input, and writes its spans under .bench_build/perfbench/traces.
// Run it from the repository root through perfbench/run.sh, which builds
// it first.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"logsynergy/internal/core"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serverMain(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench serve: %v\n", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain(os.Args[1:]))
}

// serverMain is the serving process the benchmark starts for each run.
func serverMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	dir := fs.String("dir", "", "run directory")
	setups := fs.Int("setups", 1, "set-ups to time; the last one serves")
	spans := fs.String("spans", "", "run the traced pass and write its spans here")
	windows := fs.Int("windows", 0, "windows the run will score")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	return runServer(w, *dir, *setups, *windows, *spans)
}

// Run shape.
const (
	// drainBatch is the closed loop's lines per post.
	drainBatch = 512
	// drainRounds splits the closed loop; drain_lines_per_s is the median
	// round's rate, so a burst of machine noise moves one round only.
	drainRounds = 8
	// latencyChunk is the verdict count per latency chunk: the verdict
	// percentiles are medians over consecutive chunks of the schedule, and
	// a chunk of 1000 leaves ten samples beyond its p99.
	latencyChunk = 1000
	// openPeriod is the open loop's batch interval.
	openPeriod = 10 * time.Millisecond
	// timedSetups is how many set-ups a --trace 0 run times.
	timedSetups = 3
	// lateLimitMs is the generator lateness p99 above which the run's
	// latencies measure the generator, not the system: two batch periods,
	// by which point the offered schedule has slipped a whole batch.
	lateLimitMs = 2 * float64(openPeriod/time.Millisecond)
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fresh-traffic, steady-cycles or fleet-hop")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 8, "open-loop duration in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (fresh-traffic|steady-cycles|fleet-hop), --seconds >= 1 and --trace 0|1 (%v)\n", err)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	out := filepath.Join(root, ".bench_build", "perfbench")
	runDir := filepath.Join(out, "runs", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	defer os.RemoveAll(runDir)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	spans := ""
	setups := timedSetups
	if *trace == 1 {
		spans = filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.csv", w.name, *seed))
		setups = 1
	}
	fmt.Printf("workload %s seed %d: %s\n", w.name, *seed, w.why)
	fmt.Printf("environment: commit %s\n", sourceRevision(root))

	// Inputs are generated before anything is timed.
	tr := newTraffic(w, *seed)
	closed := tr.take(w.drainLines)
	open := tr.take(int(w.rate * float64(*seconds)))

	r := &run{w: w, trace: *trace == 1}
	res, err := r.execute(runDir, setups, spans, closed, open)
	if err != nil {
		fmt.Printf("run failed: %v\n", err)
		attempted := max(r.attempted(), 1)
		printResult(result{Correct: false, Attempted: attempted, Failed: attempted, Metrics: map[string]metric{}})
		return 1
	}
	printResult(res)
	return 0
}

// run is one benchmark run's state on the load-generator side.
type run struct {
	w     workload
	trace bool
	gen   *loadgen
}

func (r *run) attempted() int {
	if r.gen == nil {
		return 0
	}
	return r.gen.attempted
}

// execute starts the serving process, drives the closed and open loops,
// collects the verdicts and assembles the result.
func (r *run) execute(dir string, setups int, spans string, closed, open []benchLine) (result, error) {
	perKey := make([]int, numKeys)
	for _, l := range append(append([]benchLine(nil), open...), closed...) {
		perKey[l.key]++
	}
	windows := 0
	for _, n := range perKey {
		windows += windowsAfter(n)
	}
	srv, ready, err := startServer(r.w, dir, setups, windows, spans)
	if err != nil {
		return result{}, err
	}
	defer srv.stop()
	fmt.Printf("environment: nproc %d, GOMAXPROCS %d, tensor.Parallelism %d, %s, shards %d\n",
		ready.Env.NumCPU, ready.Env.GOMAXPROCS, ready.Env.Parallelism, ready.Env.GoVersion, ready.Env.Shards)
	r.gen = newLoadgen(ready.Addr, r.w.fleet)

	// Open loop at the workload's fixed offered rate, against the freshly
	// started deployment, with the consumer lag sampled throughout.
	var reply waitReply
	if err := srv.call(command{Cmd: "sample"}, &reply); err != nil {
		return result{}, err
	}
	ol, err := r.gen.runOpenLoop(open, r.w.rate, openPeriod)
	if err != nil {
		return result{}, err
	}
	if err := srv.call(command{Cmd: "wait", Windows: r.gen.ackedWindows()}, &reply); err != nil {
		return result{}, err
	}

	// Closed loop: post the corpus as fast as intake admits it, in equal
	// rounds; each round runs from its first post to its last verdict.
	if err := srv.call(command{Cmd: "mark"}, &reply); err != nil {
		return result{}, err
	}
	var (
		drained waitReply
		rates   []float64
	)
	ackedBefore := r.gen.attempted - r.gen.refused
	per := (len(closed) + drainRounds - 1) / drainRounds
	for lo := 0; lo < len(closed); lo += per {
		round := closed[lo:min(lo+per, len(closed))]
		before := r.gen.attempted - r.gen.refused
		t0 := time.Now()
		for i := 0; i < len(round); i += drainBatch {
			if err := r.gen.post(round[i:min(i+drainBatch, len(round))], 0); err != nil {
				return result{}, err
			}
		}
		last := lo+per >= len(closed)
		if err := srv.call(command{Cmd: "wait", Windows: r.gen.ackedWindows(), Memory: last}, &drained); err != nil {
			return result{}, err
		}
		lines := r.gen.attempted - r.gen.refused - before
		rates = append(rates, float64(lines)/(float64(drained.LastVerdictNs-t0.UnixNano())/1e9))
	}
	closedLines := r.gen.attempted - r.gen.refused - ackedBefore
	fmt.Printf("closed loop: %d lines in %d rounds at %s lines/s\n", closedLines, len(rates), fmtList(rates, "%.0f"))

	acked := filepath.Join(dir, "acked.txt")
	if err := writeBatches(acked, r.gen.batches); err != nil {
		return result{}, err
	}
	var fin finishReply
	if err := srv.call(command{Cmd: "finish", Acked: acked}, &fin); err != nil {
		return result{}, err
	}
	if fin.Err != "" {
		return result{}, errors.New(fin.Err)
	}
	if err := srv.wait(); err != nil {
		return result{}, err
	}

	lat, truth, alerts := r.joinWindows(fin.Windows)
	g := fin.Gate
	abandoned := g.Abandoned
	failed := r.gen.refused + abandoned
	res := result{
		Correct:   g.ok(),
		Attempted: r.gen.attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	f1 := windowF1(alerts, truth)
	fmt.Printf("correctness: %d keys, %d windows, %d mismatched keys, alerts %d served vs %d reference (equal %v), %d traced mismatches, window_f1 %.4f\n",
		g.Keys, g.Windows, g.Mismatches, g.AlertsServed, g.AlertsReference, g.AlertsEqual, g.TracedMismatches, f1)
	if g.FirstMismatch != "" {
		fmt.Printf("correctness: first mismatch: %s\n", g.FirstMismatch)
	}
	fmt.Printf("failures: %d lines attempted (%d closed loop), %d refused after %d attempts, %d windows abandoned, %d retries; failed_frac %.6f\n",
		r.gen.attempted, len(closed), r.gen.refused, maxAttempts, abandoned, r.gen.retries, float64(failed)/float64(r.gen.attempted))

	lateP99, lateN := percentile(append([]float64(nil), ol.lateMs...), 99)
	valid := lateP99 <= lateLimitMs
	fmt.Printf("open loop: %d lines at %.0f lines/s, generator late p99 %.3f ms over %d batches; valid %v\n",
		len(open), r.w.rate, lateP99, lateN, valid)
	if !valid {
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: the generator ran %.1f ms late at p99 (limit %.1f ms)\n", lateP99, lateLimitMs)
	}
	samples := fin.Served.LagSamples
	if q := len(samples) / 4; q > 0 {
		fmt.Printf("backlog: mean lag %.0f lines in the first quarter, %.0f in the last (%d samples)\n",
			mean(samples[:q]), mean(samples[len(samples)-q:]), len(samples))
	}

	p50s, p99s := chunkPercentiles(lat, 50, latencyChunk), chunkPercentiles(lat, 99, latencyChunk)
	if len(p99s) == 0 {
		return result{}, fmt.Errorf("only %d verdict samples: a p99 needs %d", len(lat), latencyChunk)
	}
	fmt.Printf("verdict latency: %d samples in %d chunks; p50 %s ms, p99 %s ms\n",
		len(lat), len(p99s), fmtList(p50s, "%.2f"), fmtList(p99s, "%.2f"))
	if !r.trace {
		res.Metrics["setup_s"] = metric{median(append([]float64(nil), ready.SetupS...)), "s"}
		res.Metrics["drain_lines_per_s"] = metric{median(rates), "lines/s"}
		res.Metrics["window_f1"] = metric{f1, "ratio"}
		res.Metrics["alloc_bytes_per_line"] = metric{float64(drained.AllocBytes) / float64(closedLines), "B/line"}
		res.Metrics["live_heap_mb"] = metric{float64(drained.HeapLive) / (1 << 20), "MB"}
		fmt.Printf("setup: %s s\n", fmtList(ready.SetupS, "%.3f"))
		fmt.Printf("heap after GC: %.2f MB live, %.2f MB in use\n", float64(drained.HeapLive)/(1<<20), float64(drained.HeapInuse)/(1<<20))
	} else {
		for k, v := range fin.Layers {
			res.Metrics[k] = v
		}
		served := fin.Served
		lag, _ := percentile(samples, 99)
		res.Metrics["broker.lag_lines_p99"] = metric{lag, "lines"}
		res.Metrics["shard.partition_skew"] = metric{skew(served.PartitionLines), "ratio"}
		post50, _ := percentile(ol.postMs, 50)
		post99, _ := percentile(ol.postMs, 99)
		res.Metrics["intake.post_ms_p50"] = metric{post50, "ms"}
		res.Metrics["intake.post_ms_p99"] = metric{post99, "ms"}
		res.Metrics["cluster.retries"] = metric{float64(served.RouterRetries + int64(r.gen.retries)), "count"}
		res.Metrics["shard.interp_cache_hit_ratio"] = metric{ratio(served.CacheHits, served.CacheLookups), "ratio"}
		res.Metrics["loadgen.late_p99_ms"] = metric{lateP99, "ms"}
		res.Metrics["verdict_p50_ms"] = metric{median(p50s), "ms"}
		res.Metrics["verdict_p99_ms"] = metric{median(p99s), "ms"}
	}
	printMetrics(res.Metrics)
	return res, nil
}

// joinWindows maps each served window to the line that completed it:
// verdict latency for windows completed by open-loop lines (from the
// line's due time, in schedule order), and per-window ground truth and
// alert flags.
func (r *run) joinWindows(recs []windowRec) (lat []float64, truth, alerts []bool) {
	type sample struct {
		dueNs int64
		ms    float64
	}
	var samples []sample
	for _, rec := range recs {
		k, ok := keyIndex(rec.Key)
		if !ok || rec.Abandoned {
			continue
		}
		lines := r.gen.perKey[k]
		c := completingLine(rec.N)
		if c > len(lines) {
			continue
		}
		if due := lines[c-1].dueNs; due > 0 {
			samples = append(samples, sample{due, float64(rec.AtNs-due) / 1e6})
		}
		anom := false
		for _, l := range lines[c-windowCfg.Length : c] {
			anom = anom || l.anom
		}
		truth = append(truth, anom)
		alerts = append(alerts, math.Float64frombits(rec.Score) > core.Threshold)
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].dueNs < samples[j].dueNs })
	for _, s := range samples {
		lat = append(lat, s.ms)
	}
	return lat, truth, alerts
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// skew is the busiest partition's line count over the mean.
func skew(lines []int) float64 {
	total, most := 0, 0
	for _, n := range lines {
		total += n
		most = max(most, n)
	}
	if total == 0 {
		return 0
	}
	return float64(most) * float64(len(lines)) / float64(total)
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-36s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

func printResult(res result) {
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return
	}
	fmt.Println(string(data))
}

// sourceRevision names the code under test: the VCS revision stamped into
// the binary when it was built from a checkout with history, otherwise a
// digest of the module's Go sources.
func sourceRevision(root string) string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	var paths []string
	for _, sub := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, sub), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil
		})
	}
	paths = append(paths, filepath.Join(root, "go.mod"))
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p[len(root):])
		h.Write(data)
	}
	return "sources-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// serverProc is the serving process: commands go to its stdin, answers
// come from its stdout, and its stderr passes through while the benchmark
// keeps the first fatal-error or panic line.
type serverProc struct {
	cmd    *exec.Cmd
	enc    *json.Encoder
	dec    *json.Decoder
	stdin  io.Closer
	fatal  *fatalCapture
	waited bool
}

func startServer(w workload, dir string, setups, windows int, spans string) (*serverProc, readyMsg, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, readyMsg{}, err
	}
	cmd := exec.Command(exe, "serve", "--workload", w.name, "--dir", dir,
		"--setups", strconv.Itoa(setups), "--windows", strconv.Itoa(windows), "--spans", spans)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, readyMsg{}, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, readyMsg{}, err
	}
	fc := &fatalCapture{}
	cmd.Stderr = fc
	if err := cmd.Start(); err != nil {
		return nil, readyMsg{}, err
	}
	s := &serverProc{cmd: cmd, enc: json.NewEncoder(in), dec: json.NewDecoder(bufio.NewReader(outPipe)), stdin: in, fatal: fc}
	var ready readyMsg
	if err := s.read(&ready); err != nil {
		s.stop()
		return nil, readyMsg{}, err
	}
	if ready.Err != "" {
		s.stop()
		return nil, readyMsg{}, errors.New(ready.Err)
	}
	return s, ready, nil
}

// call sends one command and decodes its answer.
func (s *serverProc) call(c command, reply any) error {
	if err := s.enc.Encode(c); err != nil {
		return s.died(err)
	}
	if err := s.read(reply); err != nil {
		return err
	}
	if wr, ok := reply.(*waitReply); ok && wr.Err != "" {
		return errors.New(wr.Err)
	}
	return nil
}

func (s *serverProc) read(v any) error {
	if err := s.dec.Decode(v); err != nil {
		return s.died(err)
	}
	return nil
}

// died explains a broken control channel by the server's exit.
func (s *serverProc) died(cause error) error {
	s.stdin.Close()
	err := s.wait()
	if h := s.fatal.header(); h != "" {
		return fmt.Errorf("serving process died (%v): %s", err, h)
	}
	return fmt.Errorf("serving process stopped answering (%v; exit: %v)", cause, err)
}

// wait waits for the server to exit.
func (s *serverProc) wait() error {
	if s.waited {
		return nil
	}
	s.waited = true
	return s.cmd.Wait()
}

// stop ends the server if it is still running and waits for it.
func (s *serverProc) stop() {
	if s.waited {
		return
	}
	s.stdin.Close()
	done := make(chan struct{})
	go func() {
		s.wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

// fatalCapture forwards a child's stderr and keeps its fatal header: the
// first "fatal error:" or "panic:" line.
type fatalCapture struct {
	mu    sync.Mutex
	buf   []byte
	first string
}

func (f *fatalCapture) Write(p []byte) (int, error) {
	os.Stderr.Write(p)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.first != "" {
		return len(p), nil
	}
	f.buf = append(f.buf, p...)
	for {
		i := bytes.IndexByte(f.buf, '\n')
		if i < 0 {
			break
		}
		line := string(f.buf[:i])
		f.buf = f.buf[i+1:]
		if strings.HasPrefix(line, "fatal error:") || strings.HasPrefix(line, "panic:") {
			f.first = line
			f.buf = nil
			break
		}
	}
	return len(p), nil
}

func (f *fatalCapture) header() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.first
}
