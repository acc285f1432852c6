package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"logsynergy/internal/core"
	"logsynergy/internal/drain"
	"logsynergy/internal/embed"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/shard"
)

func scoreBits(s float64) uint64 { return math.Float64bits(s) }

// writeBatches stores the acknowledged batches in acknowledgement order:
// one line per log line, an empty line after each batch.
func writeBatches(path string, batches [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, b := range batches {
		for _, l := range b {
			w.WriteString(l)
			w.WriteByte('\n')
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readBatches is the inverse of writeBatches.
func readBatches(path string) ([][]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out [][]string
	var cur []string
	for _, l := range strings.Split(string(data), "\n") {
		if l == "" {
			if cur != nil {
				out = append(out, cur)
				cur = nil
			}
			continue
		}
		cur = append(cur, l)
	}
	return out, nil
}

// splitByPartition routes each line of a batch to its partition's share,
// preserving order within each share.
func splitByPartition(part *shard.Partitioner, batch []string) [][]string {
	shares := make([][]string, part.Partitions())
	for _, l := range batch {
		p := part.Partition(shard.DefaultKeyFunc(l))
		shares[p] = append(shares[p], l)
	}
	return shares
}

// partitionState assembles what one partition of the shard runtime
// owns: a detector over the shared model and a clone of the bundle's
// event table, and a parser seeded with the bundle's templates.
func partitionState(base *core.Detector) (*drain.Parser, *core.Detector) {
	det := core.NewDetector(base.Model, base.Table.Clone())
	det.Now = base.Now
	parser := drain.NewDefault()
	for _, in := range det.Table.Interps {
		parser.Parse(in.Template)
	}
	return parser, det
}

// refResult is the single-goroutine reference's output.
type refResult struct {
	scores map[string][]uint64
	sigs   map[uint64]int
	lines  int
	wall   time.Duration
}

// runReference detects the acknowledged input on one goroutine: one
// pipeline.Keyed per partition, fed exactly the lines the serving stack
// appended to that partition, in the order it appended them. A partition
// owns its parser and event table, so this, and not one Keyed over the
// whole stream, is the computation the serving stack must reproduce.
func runReference(bundlePath string, batches [][]string) (*refResult, error) {
	base, err := loadBundle(bundlePath)
	if err != nil {
		return nil, err
	}
	res := &refResult{scores: make(map[string][]uint64)}
	sink := newAlertSink()
	interp := lei.NewSimLLM(lei.Config{})
	e := embed.New(base.Table.Dim)
	part := shard.NewPartitioner(shards)
	start := time.Now()
	keyed := make([]*pipeline.Keyed, shards)
	for p := range keyed {
		parser, det := partitionState(base)
		cfg := pipeline.DefaultConfig(hint)
		cfg.Metrics = obs.NewRegistry()
		keyed[p] = pipeline.NewKeyed(pipeline.New(cfg, parser, det, interp, e, sink))
		keyed[p].OnWindow = func(key string, _ []int, score float64, abandoned bool) {
			if !abandoned {
				res.scores[key] = append(res.scores[key], scoreBits(score))
			}
		}
	}
	for _, b := range batches {
		for p, share := range splitByPartition(part, b) {
			for _, l := range share {
				keyed[p].Feed(shard.DefaultKeyFunc(l), l)
			}
			res.lines += len(share)
		}
	}
	for _, k := range keyed {
		k.Flush()
	}
	res.wall = time.Since(start)
	res.sigs = sink.snapshot()
	return res, nil
}

// gateResult is the correctness verdict on one run.
type gateResult struct {
	Keys             int    `json:"keys"`
	Windows          int    `json:"windows"`
	Abandoned        int    `json:"abandoned"`
	Mismatches       int    `json:"mismatches"`
	AlertsServed     int    `json:"alerts_served"`
	AlertsReference  int    `json:"alerts_reference"`
	AlertsEqual      bool   `json:"alerts_equal"`
	TracedMismatches int    `json:"traced_mismatches"`
	FirstMismatch    string `json:"first_mismatch,omitempty"`
}

// ok reports whether the served run reproduced the reference bit for bit.
func (g gateResult) ok() bool {
	return g.Mismatches == 0 && g.AlertsEqual && g.TracedMismatches == 0 && g.Abandoned == 0
}

// compare checks the served per-key score sequences and alert multiset
// against the reference, bit for bit.
func compare(recs []windowRec, sigs map[uint64]int, ref *refResult) gateResult {
	var g gateResult
	served := make(map[string][]uint64)
	for _, r := range recs {
		if r.Abandoned {
			g.Abandoned++
			continue
		}
		served[r.Key] = append(served[r.Key], r.Score)
		g.Windows++
	}
	g.Keys = len(served)
	g.Mismatches = diffScores(served, ref.scores)
	if g.Mismatches > 0 {
		g.FirstMismatch = firstMismatch(served, ref.scores)
	}
	for _, n := range sigs {
		g.AlertsServed += n
	}
	for _, n := range ref.sigs {
		g.AlertsReference += n
	}
	g.AlertsEqual = len(sigs) == len(ref.sigs)
	for sig, n := range sigs {
		if ref.sigs[sig] != n {
			g.AlertsEqual = false
		}
	}
	return g
}

// diffScores counts keys whose score sequences differ in length or in any
// bit.
func diffScores(got, want map[string][]uint64) int {
	bad := 0
	for key := range union(got, want) {
		if !equalBits(got[key], want[key]) {
			bad++
		}
	}
	return bad
}

func firstMismatch(got, want map[string][]uint64) string {
	for key := range union(got, want) {
		g, w := got[key], want[key]
		if equalBits(g, w) {
			continue
		}
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				return fmt.Sprintf("key %s window %d: served %v, reference %v",
					key, i+1, math.Float64frombits(g[i]), math.Float64frombits(w[i]))
			}
		}
		return fmt.Sprintf("key %s: served %d windows, reference %d", key, len(g), len(w))
	}
	return ""
}

func union(a, b map[string][]uint64) map[string]bool {
	out := make(map[string]bool, len(a))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
