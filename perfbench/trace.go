package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"logsynergy/internal/broker"
	"logsynergy/internal/core"
	"logsynergy/internal/drain"
	"logsynergy/internal/embed"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/shard"
	"logsynergy/internal/tensor"
	"logsynergy/internal/window"
)

// layer names one public entry point the traced run wraps in spans.
type layer int

const (
	layerRoute layer = iota
	layerClusterRoute
	layerAppend
	layerConsume
	layerParse
	layerInterpret
	layerExtend
	layerPattern
	layerScore
	layerReport
	layerSink
	layerCommit
	numLayers
)

var layerNames = [numLayers]string{
	layerRoute:        "shard.route",
	layerClusterRoute: "cluster.route",
	layerAppend:       "broker.append",
	layerConsume:      "broker.consume",
	layerParse:        "drain.parse",
	layerInterpret:    "lei.interpret",
	layerExtend:       "embed.extend",
	layerPattern:      "pipeline.pattern",
	layerScore:        "core.score",
	layerReport:       "core.report",
	layerSink:         "sink.notify",
	layerCommit:       "broker.commit",
}

// span is one call into a layer: its layer, the batch (request) it served,
// and its start and end in nanoseconds since the trace began. The traced
// calls do not nest, so a span's self time is its duration.
type span struct {
	layer      layer
	req        int32
	start, end int64
}

// tracer records spans in memory. Off, it records nothing; with allocs
// set it brackets every scoring call with memory statistics instead,
// which a timed pass must not do.
type tracer struct {
	on     bool
	allocs bool
	t0     time.Time
	req    int32
	spans  []span

	scoreBytes, scoreMallocs uint64
	scoredWindows            int
}

func (t *tracer) begin() int64 {
	if !t.on {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) end(l layer, start int64) {
	if t.on {
		t.spans = append(t.spans, span{layer: l, req: t.req, start: start, end: int64(time.Since(t.t0))})
	}
}

// passPartition is one partition's state in a layer pass.
type passPartition struct {
	bk          *broker.Broker
	cons        *broker.Consumer
	parser      *drain.Parser
	det         *core.Detector
	lib         *pipeline.PatternLibrary
	keys        map[string]*passWindow
	pending     []pendingWindow
	consumed    uint64
	sinceCommit int
}

type passWindow struct {
	ids   []int
	since int
}

type pendingWindow struct {
	key string
	seq []int
}

// passResult is what one layer pass computed and counted.
type passResult struct {
	scores      map[string][]uint64
	lines       int
	windows     int
	hits        int
	misses      int
	scoreCalls  int
	alerts      int
	interpCalls int
	templates   int
	bytes       int64
	wall        time.Duration
}

// commitEvery matches the shard runtime's default commit cadence.
const commitEvery = 256

// layerPass drives the acknowledged batches through the layers' public
// entry points on one goroutine, in pipeline order: route → append →
// consume → parse → interpret/extend → pattern lookup → score → report →
// sink → commit, flushing and committing on the shard runtime's cadence.
func layerPass(base *core.Detector, dir string, batches [][]string, tr *tracer) (*passResult, error) {
	cfg := window.Default()
	batchCap := 2 * tensor.Parallelism()
	cache := shard.NewInterpCache(lei.NewSimLLM(lei.Config{}), obs.NewRegistry())
	e := embed.New(base.Table.Dim)
	sink := newAlertSink()
	part := shard.NewPartitioner(shards)
	reg := obs.NewRegistry()
	res := &passResult{scores: make(map[string][]uint64)}

	parts := make([]*passPartition, shards)
	defer func() {
		for _, pp := range parts {
			if pp != nil {
				pp.cons.Close()
				pp.bk.Close()
			}
		}
	}()
	offline := 0
	for i := range parts {
		bcfg := brokerConfig()
		bcfg.Dir = filepath.Join(dir, fmt.Sprintf("p%d", i))
		bcfg.Metrics = reg
		bk, err := broker.Open(bcfg)
		if err != nil {
			return nil, err
		}
		cons, err := bk.Consumer("trace")
		if err != nil {
			bk.Close()
			return nil, err
		}
		cons.AutoCommit = false
		parser, det := partitionState(base)
		offline = parser.NumEvents()
		parts[i] = &passPartition{
			bk: bk, cons: cons, parser: parser, det: det,
			lib:  pipeline.NewPatternLibrary(0),
			keys: make(map[string]*passWindow),
		}
	}

	flush := func(pp *passPartition) {
		n := len(pp.pending)
		if n == 0 {
			return
		}
		scores := make([]float64, n)
		hit := make([]bool, n)
		keys := make([]string, n)
		dupOf := make([]int, n)
		firstSeen := make(map[string]int)
		var missIdx []int
		for i, pw := range pp.pending {
			dupOf[i] = -1
			s := tr.begin()
			cached, ok, k := pp.lib.LookupOrKey(pw.seq)
			tr.end(layerPattern, s)
			keys[i] = k
			if ok {
				scores[i], hit[i] = cached, true
				continue
			}
			if j, dup := firstSeen[k]; dup {
				dupOf[i], hit[i] = j, true
				continue
			}
			firstSeen[k] = i
			missIdx = append(missIdx, i)
		}
		if len(missIdx) > 0 {
			seqs := make([][]int, len(missIdx))
			for pos, i := range missIdx {
				seqs[pos] = pp.pending[i].seq
			}
			var before runtime.MemStats
			if tr.allocs {
				runtime.ReadMemStats(&before)
			}
			s := tr.begin()
			out := pp.det.ScoreSequences(seqs)
			tr.end(layerScore, s)
			if tr.allocs {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				tr.scoreBytes += after.TotalAlloc - before.TotalAlloc
				tr.scoreMallocs += after.Mallocs - before.Mallocs
				tr.scoredWindows += len(seqs)
			}
			for pos, sc := range out {
				scores[missIdx[pos]] = sc
			}
			res.scoreCalls++
			res.misses += len(seqs)
		}
		for i, j := range dupOf {
			if j >= 0 {
				scores[i] = scores[j]
			}
		}
		for i, pw := range pp.pending {
			if hit[i] {
				res.hits++
			} else {
				s := tr.begin()
				pp.lib.StoreKey(keys[i], scores[i])
				tr.end(layerPattern, s)
			}
			if scores[i] > core.Threshold {
				s := tr.begin()
				rep := pp.det.BuildReport(pw.seq, scores[i])
				tr.end(layerReport, s)
				s = tr.begin()
				sink.Notify(rep)
				tr.end(layerSink, s)
				res.alerts++
			}
			res.scores[pw.key] = append(res.scores[pw.key], scoreBits(scores[i]))
		}
		res.windows += n
		pp.pending = pp.pending[:0]
	}
	commit := func(pp *passPartition) error {
		flush(pp)
		pp.sinceCommit = 0
		s := tr.begin()
		pp.cons.Ack(pp.consumed)
		err := pp.cons.Commit()
		tr.end(layerCommit, s)
		return err
	}
	feed := func(pp *passPartition, line string) {
		s := tr.begin()
		m := pp.parser.Parse(line)
		tr.end(layerParse, s)
		for pp.det.Table.Len() <= m.EventID {
			s = tr.begin()
			in := cache.Interpret(hint, m.Template)
			tr.end(layerInterpret, s)
			s = tr.begin()
			pp.det.Table.Extend(in, e)
			tr.end(layerExtend, s)
			res.interpCalls++
		}
		key := shard.DefaultKeyFunc(line)
		kw := pp.keys[key]
		if kw == nil {
			kw = &passWindow{}
			pp.keys[key] = kw
		}
		kw.ids = append(kw.ids, m.EventID)
		kw.since++
		if len(kw.ids) > cfg.Length {
			kw.ids = kw.ids[1:]
		}
		if len(kw.ids) == cfg.Length && kw.since >= cfg.Step {
			pp.pending = append(pp.pending, pendingWindow{key: key, seq: append([]int(nil), kw.ids...)})
			kw.since = 0
			if len(pp.pending) >= batchCap {
				flush(pp)
			}
		}
		pp.sinceCommit++
	}

	start := time.Now()
	for bi, b := range batches {
		tr.req = int32(bi)
		s := tr.begin()
		shares := splitByPartition(part, b)
		tr.end(layerRoute, s)
		for p, share := range shares {
			if len(share) == 0 {
				continue
			}
			pp := parts[p]
			s = tr.begin()
			_, _, err := pp.bk.AppendBatch(share)
			tr.end(layerAppend, s)
			if err != nil {
				return nil, err
			}
			for range share {
				s = tr.begin()
				line, ok := pp.cons.Next()
				tr.end(layerConsume, s)
				if !ok {
					return nil, fmt.Errorf("partition %d: consumer ended early: %v", p, pp.cons.Err())
				}
				pp.consumed++
				feed(pp, line)
				if pp.sinceCommit >= commitEvery {
					if err := commit(pp); err != nil {
						return nil, err
					}
				}
			}
			// Caught up with the backlog: flush and commit, as the runtime does.
			if err := commit(pp); err != nil {
				return nil, err
			}
			res.lines += len(share)
		}
	}
	res.wall = time.Since(start)
	for _, pp := range parts {
		res.templates += pp.parser.NumEvents() - offline
	}
	res.bytes = reg.Snapshot().Counters["broker.appended_bytes"]
	return res, nil
}

// routeStage posts every acknowledged batch through Router.RouteBatch to
// a fresh two-node fleet, timing each call, waits for the fleet to score
// everything, and returns the fleet's per-key scores.
func routeStage(bundlePath, dir string, batches [][]string, tr *tracer) (map[string][]uint64, time.Duration, error) {
	rec := newRecorder(0)
	st, err := openFleet(bundlePath, dir, rec, newAlertSink())
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	for bi, b := range batches {
		tr.req = int32(bi)
		s := tr.begin()
		resp := st.router.RouteBatch(b)
		tr.end(layerClusterRoute, s)
		if resp.Rejected > 0 {
			st.close()
			return nil, 0, fmt.Errorf("router rejected %d lines of batch %d", resp.Rejected, bi)
		}
	}
	wall := time.Since(start)
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	for _, n := range st.nodes {
		if err := n.Drain(ctx); err != nil {
			st.close()
			return nil, 0, err
		}
	}
	if err := st.close(); err != nil {
		return nil, 0, err
	}
	scores := make(map[string][]uint64)
	for _, r := range rec.snapshot() {
		scores[r.Key] = append(scores[r.Key], r.Score)
	}
	return scores, wall, nil
}

// tracedRun runs the traced pass (preceded, on the steady traffic of
// steady-cycles and fleet-hop, by the router stage)
// and the allocation pass over the acknowledged input, writes the spans
// to spansPath, and returns the per-layer metrics and how many keys'
// scores in those passes differ from the reference's.
func tracedRun(w workload, bundlePath, dir, spansPath string, batches [][]string, ref *refResult) (map[string]metric, int, error) {
	base, err := loadBundle(bundlePath)
	if err != nil {
		return nil, 0, err
	}
	tr := &tracer{on: true, t0: time.Now()}
	mismatches := 0
	var routeWall time.Duration
	if w.steady {
		scores, wall, err := routeStage(bundlePath, filepath.Join(dir, "fleet"), batches, tr)
		if err != nil {
			return nil, 0, err
		}
		mismatches += diffScores(scores, ref.scores)
		routeWall = wall
	}
	par0 := obs.Default().Counter("tensor.dispatch.parallel").Value()
	ser0 := obs.Default().Counter("tensor.dispatch.serial").Value()
	res, err := layerPass(base, filepath.Join(dir, "traced"), batches, tr)
	if err != nil {
		return nil, 0, err
	}
	par := obs.Default().Counter("tensor.dispatch.parallel").Value() - par0
	ser := obs.Default().Counter("tensor.dispatch.serial").Value() - ser0
	mismatches += diffScores(res.scores, ref.scores)

	alloc := &tracer{allocs: true}
	ares, err := layerPass(base, filepath.Join(dir, "alloc"), batches, alloc)
	if err != nil {
		return nil, 0, err
	}
	mismatches += diffScores(ares.scores, ref.scores)

	if err := writeSpans(spansPath, tr.spans); err != nil {
		return nil, 0, err
	}

	var self [numLayers]time.Duration
	var calls [numLayers]int
	var perBatch []float64
	routeLayer := layerRoute
	if w.steady {
		routeLayer = layerClusterRoute
	}
	for _, sp := range tr.spans {
		d := time.Duration(sp.end - sp.start)
		self[sp.layer] += d
		calls[sp.layer]++
		if sp.layer == routeLayer {
			perBatch = append(perBatch, d.Seconds()*1e3)
		}
	}
	wall := res.wall + routeWall
	us := func(d time.Duration) float64 { return d.Seconds() * 1e6 }
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	routeP50, _ := percentile(perBatch, 50)
	m := map[string]metric{
		"core.score_us_per_window":          {per(us(self[layerScore]), res.misses), "us"},
		"core.score_windows_per_call":       {per(float64(res.misses), res.scoreCalls), "windows"},
		"core.score_alloc_bytes_per_window": {per(float64(alloc.scoreBytes), alloc.scoredWindows), "B"},
		"core.score_allocs_per_window":      {per(float64(alloc.scoreMallocs), alloc.scoredWindows), "count"},
		"tensor.parallel_dispatch_ratio":    {per(float64(par), int(par+ser)), "ratio"},
		"pipeline.pattern_hit_ratio":        {per(float64(res.hits), res.windows), "ratio"},
		"pipeline.pattern_us_per_window":    {per(us(self[layerPattern]), res.windows), "us"},
		"pipeline.windows":                  {float64(res.windows), "count"},
		"broker.append_us_per_line":         {per(us(self[layerAppend]), res.lines), "us"},
		"broker.consume_us_per_line":        {per(us(self[layerConsume]), res.lines), "us"},
		"broker.commit_ms_per_call":         {per(us(self[layerCommit])/1e3, calls[layerCommit]), "ms"},
		"broker.bytes_per_line":             {per(float64(res.bytes), res.lines), "B"},
		"shard.route_us_per_line":           {per(us(self[layerRoute]), res.lines), "us"},
		"drain.parse_us_per_line":           {per(us(self[layerParse]), res.lines), "us"},
		"drain.templates":                   {float64(res.templates), "count"},
		"cluster.route_batch_ms_p50":        {routeP50, "ms"},
		"lei.interpret_calls":               {float64(res.interpCalls), "count"},
		"lei.interpret_us_per_call":         {per(us(self[layerInterpret]), calls[layerInterpret]), "us"},
		"embed.extend_us_per_call":          {per(us(self[layerExtend]), calls[layerExtend]), "us"},
		"core.report_us_per_alert":          {per(us(self[layerReport]), res.alerts), "us"},
		"core.alerts":                       {float64(res.alerts), "count"},
		"sink.notify_us_per_alert":          {per(us(self[layerSink]), res.alerts), "us"},
		"reference.lines_per_s":             {float64(ref.lines) / ref.wall.Seconds(), "lines/s"},
		"trace.overhead_ratio":              {wall.Seconds() / ref.wall.Seconds(), "ratio"},
	}
	for l := layer(0); l < numLayers; l++ {
		m[layerNames[l]+".share"] = metric{self[l].Seconds() / wall.Seconds(), "ratio"}
	}
	return m, mismatches, nil
}

// writeSpans writes the spans as CSV: layer, request, start and end in
// nanoseconds since the trace began.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer,request,start_ns,end_ns")
	for _, sp := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d\n", layerNames[sp.layer], sp.req, sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
