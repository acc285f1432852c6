package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"logsynergy/internal/broker"
	"logsynergy/internal/cluster"
	"logsynergy/internal/core"
	"logsynergy/internal/embed"
	"logsynergy/internal/lei"
	"logsynergy/internal/logdata"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/repr"
	"logsynergy/internal/shard"
	"logsynergy/internal/window"
)

// The fixed-seed bundle every run trains: target BGL with Spirit and
// Thunderbird as sources, seeded like `logsynergy train`.
const (
	sourceSeqs  = 600
	targetSeqs  = 120
	trainEpochs = 4
	sourceSeed  = 7
	targetSeed  = 11
)

// shards is the partition count of every serving stack.
const shards = 2

// hint is the LEI system hint for templates first seen online.
var hint = repr.SystemHint("BGL")

// trainBundle trains the fixed-seed model and returns its serialized
// bundle.
func trainBundle() ([]byte, error) {
	interp := lei.NewSimLLM(lei.Config{})
	cfg := core.DefaultConfig()
	cfg.Epochs = trainEpochs
	embedder := embed.New(cfg.EmbedDim)
	var sources []*repr.Dataset
	for _, spec := range []*logdata.SystemSpec{logdata.Spirit(), logdata.Thunderbird()} {
		sources = append(sources, repr.Build(trainingSeqs(spec, sourceSeed, sourceSeqs), interp, embedder))
	}
	target := trainingSeqs(logdata.BGL(), targetSeed, targetSeqs)
	table := repr.BuildEventTable(target, interp, embedder)
	model := core.TrainModel(cfg, sources, repr.BuildDataset(target, table))
	var buf bytes.Buffer
	if err := core.SaveBundle(&buf, model, table); err != nil {
		return nil, fmt.Errorf("saving bundle: %w", err)
	}
	return buf.Bytes(), nil
}

// trainingSeqs generates just enough of a system's corpus for n windows.
func trainingSeqs(spec *logdata.SystemSpec, seed int64, n int) *logdata.Sequences {
	cfg := window.Default()
	lines := cfg.Length + cfg.Step*(n-1) + 1
	return logdata.Build(spec, seed, float64(lines)/float64(spec.Lines), cfg).Head(n)
}

// loadBundle reads a bundle file the way `logsynergy serve -model` does.
func loadBundle(path string) (*core.Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadBundle(f)
}

// windowRec is one scored window as the serving stack's OnWindow hook saw
// it: the key, the key's window number (1-based), the score bits, and the
// wall-clock verdict time.
type windowRec struct {
	Key       string `json:"k"`
	N         int    `json:"n"`
	Score     uint64 `json:"s"`
	Abandoned bool   `json:"a,omitempty"`
	AtNs      int64  `json:"t"`
}

// recorder collects every window verdict of the serving stack.
type recorder struct {
	mu     sync.Mutex
	perKey map[string]int
	recs   []windowRec
}

// newRecorder sizes the record buffer for the windows the run will
// score, so the harness's own memory does not vary with growth steps.
func newRecorder(windows int) *recorder {
	return &recorder{perKey: make(map[string]int), recs: make([]windowRec, 0, windows)}
}

func (r *recorder) onWindow(_ int, key string, _ []int, score float64, abandoned bool) {
	at := time.Now().UnixNano()
	r.mu.Lock()
	r.perKey[key]++
	r.recs = append(r.recs, windowRec{Key: key, N: r.perKey[key], Score: scoreBits(score), Abandoned: abandoned, AtNs: at})
	r.mu.Unlock()
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// last returns the verdict time of the most recent window.
func (r *recorder) last() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.recs) == 0 {
		return 0
	}
	return r.recs[len(r.recs)-1].AtNs
}

func (r *recorder) snapshot() []windowRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]windowRec(nil), r.recs...)
}

// alertSink is the deployment's alert channel: it keeps the multiset of
// alert signatures the correctness gate compares, as 64-bit hashes so the
// harness holds little memory in the serving process.
type alertSink struct {
	mu   sync.Mutex
	sigs map[uint64]int
}

func newAlertSink() *alertSink { return &alertSink{sigs: make(map[uint64]int)} }

// Notify implements pipeline.Sink.
func (s *alertSink) Notify(r *core.Report) {
	sig := alertSig(r)
	s.mu.Lock()
	s.sigs[sig]++
	s.mu.Unlock()
}

func (s *alertSink) snapshot() map[uint64]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]int, len(s.sigs))
	for k, v := range s.sigs {
		out[k] = v
	}
	return out
}

// alertSig reduces a report to an id-free signature: event ids are
// numbered per partition, scores and templates are not.
func alertSig(r *core.Report) uint64 {
	h := fnv.New64a()
	io.WriteString(h, r.System+"|"+strconv.FormatFloat(r.Score, 'x', -1, 64)+"|"+strings.Join(r.Templates, "\x1f"))
	return h.Sum64()
}

// runtimeConfig is the shard runtime `logsynergy serve -shards 2
// -broker-dir dir` assembles with its default flags.
func runtimeConfig(det *core.Detector, dir string, rec *recorder, sink pipeline.Sink) shard.Config {
	return shard.Config{
		Shards:   shards,
		Dir:      dir,
		Broker:   brokerConfig(),
		Pipeline: pipeline.DefaultConfig(hint),
		Detector: det,
		Interp:   lei.NewSimLLM(lei.Config{}),
		Embedder: embed.New(det.Table.Dim),
		Sink:     sink,
		OnWindow: rec.onWindow,
	}
}

// brokerConfig is the per-partition broker `logsynergy serve` configures
// with its default flags.
func brokerConfig() broker.Config {
	return broker.Config{
		SegmentBytes:    8 << 20,
		Fsync:           broker.FsyncInterval,
		FsyncEvery:      50 * time.Millisecond,
		MaxBacklogBytes: 256 << 20,
		FullPolicy:      broker.FullReject,
	}
}

// stack is one serving deployment: the single-process shard runtime
// behind its /ingest handler, or a two-node fleet behind the front router.
type stack struct {
	rt     *shard.Runtime
	nodes  []*cluster.Node
	router *cluster.Router
	// routerMetrics is the front router's registry (fleet only).
	routerMetrics *obs.Registry
	servers       []*http.Server
	// addr is the intake's host:port.
	addr string
}

// runtimes returns every shard runtime of the stack.
func (s *stack) runtimes() []*shard.Runtime {
	if s.rt != nil {
		return []*shard.Runtime{s.rt}
	}
	var out []*shard.Runtime
	for _, n := range s.nodes {
		out = append(out, n.Runtime())
	}
	return out
}

// close shuts the stack down gracefully: listeners first, then the
// runtimes, which drain and commit.
func (s *stack) close() error {
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.router != nil {
		s.router.Close()
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.rt != nil {
		keep(s.rt.Close())
	}
	for _, n := range s.nodes {
		keep(n.Close())
	}
	return first
}

// serveOn starts an HTTP server for h on ln and registers it with s.
func (s *stack) serveOn(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	go srv.Serve(ln)
}

// setup is the timed set-up: train the bundle, SaveBundle → LoadBundle
// through a file, open the serving stack and get its listener ready.
func setup(w workload, dir string, rec *recorder, sink pipeline.Sink) ([]byte, *stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	bundle, err := trainBundle()
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, "model.json")
	if err := os.WriteFile(path, bundle, 0o644); err != nil {
		return nil, nil, err
	}
	var st *stack
	if w.fleet {
		st, err = openFleet(path, filepath.Join(dir, "fleet"), rec, sink)
	} else {
		st, err = openSingle(path, filepath.Join(dir, "wal"), rec, sink)
	}
	return bundle, st, err
}

// openSingle serves the single-process runtime's /ingest on loopback.
func openSingle(bundlePath, dir string, rec *recorder, sink pipeline.Sink) (*stack, error) {
	det, err := loadBundle(bundlePath)
	if err != nil {
		return nil, err
	}
	cfg := runtimeConfig(det, dir, rec, sink)
	cfg.Metrics = obs.Default()
	rt, err := shard.Open(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		return nil, err
	}
	st := &stack{rt: rt, addr: ln.Addr().String()}
	mux := http.NewServeMux()
	mux.Handle("/ingest", rt.IngestHandler(broker.DefaultMaxBatchBytes))
	st.serveOn(ln, mux)
	return st, nil
}

// openFleet starts two nodes, each loading the bundle and owning one
// partition, behind the front router, all on loopback.
func openFleet(bundlePath, dir string, rec *recorder, sink pipeline.Sink) (*stack, error) {
	names := []string{"a", "b"}
	lns := make([]net.Listener, len(names))
	m := &cluster.Manifest{
		Version:     cluster.ManifestVersion,
		Epoch:       1,
		Shards:      shards,
		Dir:         dir,
		Nodes:       map[string]cluster.NodeSpec{},
		Assignments: names,
	}
	st := &stack{}
	fail := func(err error) (*stack, error) {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
		st.close()
		return nil, err
	}
	for i, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		lns[i] = ln
		m.Nodes[name] = cluster.NodeSpec{Addr: ln.Addr().String()}
	}
	for i, name := range names {
		det, err := loadBundle(bundlePath)
		if err != nil {
			return fail(err)
		}
		node, err := cluster.StartNode(cluster.NodeConfig{
			Manifest: m,
			Name:     name,
			Runtime:  runtimeConfig(det, "", rec, sink),
		})
		if err != nil {
			return fail(err)
		}
		st.nodes = append(st.nodes, node)
		st.serveOn(lns[i], node.Handler())
		lns[i] = nil
	}
	st.routerMetrics = obs.NewRegistry()
	router, err := cluster.NewRouter(cluster.RouterConfig{Manifest: m, Metrics: st.routerMetrics})
	if err != nil {
		return fail(err)
	}
	st.router = router
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	st.addr = ln.Addr().String()
	st.serveOn(ln, router.Handler())
	return st, nil
}

// lagSampler samples the total consumer lag of every partition on a
// fixed cadence while the open loop runs.
type lagSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startLagSampler(rts []*shard.Runtime, every time.Duration) *lagSampler {
	s := &lagSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				var lag uint64
				for _, rt := range rts {
					for _, h := range rt.Health() {
						lag += h.Lag
					}
				}
				s.samples = append(s.samples, float64(lag))
			}
		}
	}()
	return s
}

// finish stops sampling and returns the samples.
func (s *lagSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// waitWindows blocks until the recorder holds at least n windows.
func waitWindows(ctx context.Context, rec *recorder, n int) error {
	for rec.count() < n {
		select {
		case <-ctx.Done():
			return fmt.Errorf("waited for %d windows, got %d: %w", n, rec.count(), ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}
