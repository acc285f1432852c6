package core

import (
	"fmt"
	"strings"
	"time"

	"logsynergy/internal/metrics"
	"logsynergy/internal/obs"
	"logsynergy/internal/repr"
)

// Detector throughput metrics (obs.Default): scores-per-second falls out
// of core.scores_total over the sum of core.score_batch_seconds; report
// build latency is the cost of materializing one alert.
var (
	scoresTotal        = obs.Default().Counter("core.scores_total")
	scoreBatchSeconds  = obs.Default().Histogram("core.score_batch_seconds")
	reportBuildSeconds = obs.Default().Histogram("core.report_build_seconds")
)

// Threshold is the fixed anomaly decision threshold the paper uses for
// every classifier (§III-E, §IV-A3).
const Threshold = 0.5

// Report is the anomaly report generated for a detected sequence
// (paper §III-E and §VI-A "Report"): the original event templates, their
// LEI interpretations, the anomaly score, and metadata.
type Report struct {
	// System identifies the monitored (target) system.
	System string
	// Timestamp is when the detection was made.
	Timestamp time.Time
	// Score is the anomaly probability in [0,1].
	Score float64
	// EventIDs is the offending sequence.
	EventIDs []int
	// Templates holds the raw event templates of the sequence.
	Templates []string
	// Interpretations holds the LEI interpretation of each event.
	Interpretations []string
}

// String renders the report the way the on-call alert does.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ANOMALY system=%s score=%.3f time=%s\n", r.System, r.Score, r.Timestamp.Format(time.RFC3339))
	for i := range r.EventIDs {
		fmt.Fprintf(&b, "  [%d] %s\n      -> %s\n", r.EventIDs[i], r.Templates[i], r.Interpretations[i])
	}
	return b.String()
}

// Detector is the online detection phase: it embeds incoming sequences
// with the same event table used offline and scores them with the trained
// model's F + C_anomaly.
type Detector struct {
	Model *Model
	Table *repr.EventTable
	// Now supplies report timestamps (overridable in tests).
	Now func() time.Time
}

// NewDetector wires a trained model to the target system's event table.
func NewDetector(m *Model, table *repr.EventTable) *Detector {
	return &Detector{Model: m, Table: table, Now: time.Now}
}

// ScoreSequence scores a single event-id sequence.
func (d *Detector) ScoreSequence(eventIDs []int) float64 {
	seqs := [][]int{eventIDs}
	d.checkSequences(seqs)
	var out [1]float64
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	d.scoreChunk(s, seqs, out[:])
	return out[0]
}

// ScoreSequences scores a batch of event-id sequences, splitting the batch
// once into contiguous chunks across the tensor worker pool (online
// scoring is embarrassingly parallel: the model and event table are
// read-only during inference). Each worker embeds its chunk and scores it
// with batched serial forwards. Scores are returned in input order;
// sequences may have differing lengths. An empty batch returns nil.
func (d *Detector) ScoreSequences(seqs [][]int) []float64 {
	if len(seqs) == 0 {
		return nil
	}
	start := time.Now()
	d.checkSequences(seqs)
	scores := make([]float64, len(seqs))
	splitWindows(len(seqs), func(s *scratch, lo, hi int) {
		d.scoreChunk(s, seqs[lo:hi], scores[lo:hi])
	})
	scoresTotal.Add(int64(len(seqs)))
	scoreBatchSeconds.ObserveSince(start)
	return scores
}

// checkSequences panics, on the calling goroutine, on any sequence the
// model cannot score: an empty one or an event id outside the table.
func (d *Detector) checkSequences(seqs [][]int) {
	rows := d.Table.Vectors.Rows()
	for _, ids := range seqs {
		d.Model.checkShape(len(ids), d.Table.Dim)
		for _, id := range ids {
			if id < 0 || id >= rows {
				panic(fmt.Sprintf("core: event id %d outside table of %d events", id, rows))
			}
		}
	}
}

// scoreChunk scores validated sequences into out, one batched forward per
// run of consecutive same-length sequences.
func (d *Detector) scoreChunk(s *scratch, seqs [][]int, out []float64) {
	dim := d.Table.Dim
	vecs := d.Table.Vectors.Data
	for lo := 0; lo < len(seqs); {
		t := len(seqs[lo])
		hi := lo + 1
		for hi < len(seqs) && len(seqs[hi]) == t {
			hi++
		}
		s.x = grow(s.x, (hi-lo)*t*dim)
		for i, ids := range seqs[lo:hi] {
			for j, id := range ids {
				copy(s.x[(i*t+j)*dim:(i*t+j+1)*dim], vecs[id*dim:(id+1)*dim])
			}
		}
		d.Model.inferScores(s, s.x, hi-lo, t, out[lo:hi])
		lo = hi
	}
}

// BatchResult pairs one sequence's score with its report (nil when the
// score does not cross the detection threshold).
type BatchResult struct {
	Score  float64
	Report *Report
}

// DetectBatch scores sequences concurrently and materializes reports for
// the anomalous ones, preserving input order. Report construction stays on
// the calling goroutine: it is cheap, and keeping it serial means report
// timestamps from d.Now are drawn in input order.
func (d *Detector) DetectBatch(seqs [][]int) []BatchResult {
	scores := d.ScoreSequences(seqs)
	out := make([]BatchResult, len(seqs))
	for i, score := range scores {
		out[i].Score = score
		if score > Threshold {
			out[i].Report = d.BuildReport(seqs[i], score)
		}
	}
	return out
}

// Detect scores a sequence and, if it crosses the threshold, produces the
// anomaly report.
func (d *Detector) Detect(eventIDs []int) (float64, *Report) {
	score := d.ScoreSequence(eventIDs)
	if score <= Threshold {
		return score, nil
	}
	return score, d.BuildReport(eventIDs, score)
}

// BuildReport assembles the anomaly report for a sequence without running
// the model (used by the pattern library for cached anomalous patterns).
func (d *Detector) BuildReport(eventIDs []int, score float64) *Report {
	start := time.Now()
	defer reportBuildSeconds.ObserveSince(start)
	rep := &Report{
		System:    d.Table.System,
		Timestamp: d.Now(),
		Score:     score,
		EventIDs:  append([]int(nil), eventIDs...),
	}
	for _, id := range eventIDs {
		in := d.Table.Interps[id]
		rep.Templates = append(rep.Templates, in.Template)
		rep.Interpretations = append(rep.Interpretations, in.Text)
	}
	return rep
}

// EvaluateDataset scores every sequence of a materialized dataset and
// returns the paper's (P, R, F1) triple at the fixed 0.5 threshold.
func EvaluateDataset(m *Model, d *repr.Dataset) metrics.Result {
	scores := m.Score(d.X, 256)
	return metrics.Evaluate(scores, d.Labels, Threshold)
}
