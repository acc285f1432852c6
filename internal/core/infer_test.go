package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"logsynergy/internal/embed"
	"logsynergy/internal/lei"
	"logsynergy/internal/logdata"
	"logsynergy/internal/metrics"
	"logsynergy/internal/nn"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
	"logsynergy/internal/window"
)

// withParallelism runs fn with the given worker count, forcing every
// kernel and batch split through the pool when workers > 1.
func withParallelism(workers int, fn func()) {
	prevW := tensor.SetParallelism(workers)
	prevT := tensor.SetMinParallelWork(1)
	defer func() {
		tensor.SetParallelism(prevW)
		tensor.SetMinParallelWork(prevT)
	}()
	fn()
}

// tapeScores is the reference: the sigmoid of the autodiff forward's
// sequence logits with train=false.
func tapeScores(m *Model, x *tensor.Tensor) []float64 {
	g := nn.NewGraph()
	fwd := m.forward(g, g.Const(x), false)
	out := make([]float64, x.Dim(0))
	for i, z := range fwd.logits.Value.Data {
		out[i] = 1 / (1 + math.Exp(-z))
	}
	return out
}

func assertBitIdentical(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: score %d is %v (%#x), tape gives %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// inferFixture is a small target system: an event table, its windows as
// id sequences, and the embedded dataset.
type inferFixture struct {
	seqs  *logdata.Sequences
	table *repr.EventTable
	data  *repr.Dataset
}

func newInferFixture(lines int) inferFixture {
	interp := lei.NewSimLLM(lei.Config{})
	e := embed.New(DefaultConfig().EmbedDim)
	spec := logdata.Thunderbird()
	seqs := logdata.Build(spec, 3, float64(lines)/float64(spec.Lines), window.Default())
	table := repr.BuildEventTable(seqs, interp, e)
	return inferFixture{seqs: seqs, table: table, data: repr.BuildDataset(seqs, table)}
}

// ids returns the first n windows as event-id sequences.
func (f inferFixture) ids(n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = f.seqs.Samples[i].EventIDs
	}
	return out
}

// briefTrainedModel trains a SUFE+DA model for one short epoch, so the
// weights are no longer at their initialization.
func briefTrainedModel(target *repr.Dataset) *Model {
	interp := lei.NewSimLLM(lei.Config{})
	e := embed.New(DefaultConfig().EmbedDim)
	spec := logdata.BGL()
	src := repr.Build(logdata.Build(spec, 1, 3000/float64(spec.Lines), window.Default()), interp, e)
	cfg := DefaultConfig()
	cfg.Epochs = 1
	cfg.BatchSize = 32
	cfg.UseSUFE, cfg.UseDA = true, true
	return TrainModel(cfg, []*repr.Dataset{src}, target)
}

// TestInferenceBitIdentical pins the tape-free scoring forward to the
// autodiff forward bit for bit, for fresh and trained weights, across
// batch sizes (300 crosses Model.Score's default 256-window chunk) and
// worker counts.
func TestInferenceBitIdentical(t *testing.T) {
	fx := newInferFixture(3000)
	if fx.data.Len() < 300 {
		t.Fatalf("fixture has %d windows, need 300", fx.data.Len())
	}
	noSUFE := DefaultConfig()
	noSUFE.UseSUFE = false
	models := map[string]*Model{
		"fresh":         NewModel(DefaultConfig(), 2),
		"fresh-no-sufe": NewModel(noSUFE, 2),
		"trained":       briefTrainedModel(fx.data),
	}
	rng := rand.New(rand.NewSource(5))
	for name, m := range models {
		for _, b := range []int{1, 3, 64, 300} {
			inputs := map[string]*tensor.Tensor{
				"windows": tensor.FromSlice(fx.data.X.Data[:b*fx.data.SeqLen*fx.data.Dim()], b, fx.data.SeqLen, fx.data.Dim()),
				"gauss":   tensor.Randn(rng, 1, b, 7, m.Cfg.EmbedDim),
			}
			for in, x := range inputs {
				want := tapeScores(m, x)
				for _, workers := range []int{1, 4} {
					what := fmt.Sprintf("%s/%s/B=%d/workers=%d", name, in, b, workers)
					withParallelism(workers, func() {
						assertBitIdentical(t, what+"/Score", m.Score(x, 256), want)
						assertBitIdentical(t, what+"/Score(batch 7)", m.Score(x, 7), want)
						if in == "windows" {
							det := NewDetector(m, fx.table)
							assertBitIdentical(t, what+"/ScoreSequences", det.ScoreSequences(fx.ids(b)), want)
						}
					})
				}
			}
		}
	}
}

// TestScoringEntryPointsAgree checks that every online scoring surface
// returns the same score for the same window.
func TestScoringEntryPointsAgree(t *testing.T) {
	fx := newInferFixture(1500)
	m := NewModel(DefaultConfig(), 2)
	det := NewDetector(m, fx.table)
	n := fx.data.Len()
	seqs := fx.ids(n)
	withParallelism(4, func() {
		batch := det.ScoreSequences(seqs)
		assertBitIdentical(t, "Model.Score", m.Score(fx.data.X, 256), batch)
		results := det.DetectBatch(seqs)
		for i, ids := range seqs {
			score, rep := det.Detect(ids)
			if score != batch[i] || det.ScoreSequence(ids) != batch[i] || results[i].Score != batch[i] {
				t.Fatalf("window %d: Detect %v, ScoreSequence %v, DetectBatch %v, ScoreSequences %v",
					i, score, det.ScoreSequence(ids), results[i].Score, batch[i])
			}
			if (rep != nil) != (results[i].Report != nil) || (rep != nil) != (batch[i] > Threshold) {
				t.Fatalf("window %d: report presence disagrees", i)
			}
		}
		if got, want := EvaluateDataset(m, fx.data), metrics.Evaluate(batch, fx.data.Labels, Threshold); got != want {
			t.Fatalf("EvaluateDataset %+v, want %+v from ScoreSequences", got, want)
		}
	})
}

// TestScoreSequencesMixedLengths scores a batch whose lengths change
// mid-chunk: each score must match the window scored alone, in input order.
func TestScoreSequencesMixedLengths(t *testing.T) {
	fx := newInferFixture(1500)
	m := NewModel(DefaultConfig(), 2)
	det := NewDetector(m, fx.table)
	base := fx.ids(12)
	var seqs [][]int
	for i, l := range []int{10, 10, 7, 7, 7, 10, 3, 12, 1, 10, 10, 4} {
		ids := append([]int(nil), base[i]...)
		for len(ids) < l {
			ids = append(ids, base[i][len(ids)%len(base[i])])
		}
		seqs = append(seqs, ids[:l])
	}
	for _, workers := range []int{1, 4} {
		withParallelism(workers, func() {
			got := det.ScoreSequences(seqs)
			for i, ids := range seqs {
				x := tensor.New(1, len(ids), fx.table.Dim)
				for j, id := range ids {
					copy(x.Data[j*fx.table.Dim:], fx.table.Vectors.Data[id*fx.table.Dim:(id+1)*fx.table.Dim])
				}
				assertBitIdentical(t, fmt.Sprintf("workers=%d/window %d (len %d)", workers, i, len(ids)),
					got[i:i+1], tapeScores(m, x))
			}
		})
	}
}

// TestScoreSequencesOutOfRangePanics keeps the panic the pipeline's fault
// containment relies on, and keeps it on the calling goroutine even when
// the batch is sharded (a panic in a pooled worker would kill the process).
func TestScoreSequencesOutOfRangePanics(t *testing.T) {
	fx := newInferFixture(1500)
	det := NewDetector(NewModel(DefaultConfig(), 2), fx.table)
	seqs := fx.ids(8)
	bad := append([]int(nil), seqs[6]...)
	bad[2] = fx.table.Len() + 3
	seqs[6] = bad
	for _, workers := range []int{1, 4} {
		withParallelism(workers, func() {
			for name, call := range map[string]func(){
				"ScoreSequences": func() { det.ScoreSequences(seqs) },
				"DetectBatch":    func() { det.DetectBatch(seqs) },
				"Detect":         func() { det.Detect(bad) },
			} {
				msg := func() (msg string) {
					defer func() { msg = fmt.Sprint(recover()) }()
					call()
					return ""
				}()
				want := fmt.Sprintf("core: event id %d outside table of %d events", bad[2], fx.table.Len())
				if !strings.Contains(msg, want) {
					t.Fatalf("workers=%d %s: panic %q, want %q", workers, name, msg, want)
				}
			}
		})
	}
}

func TestScoreSequencesEmptyBatch(t *testing.T) {
	fx := newInferFixture(1500)
	det := NewDetector(NewModel(DefaultConfig(), 2), fx.table)
	if got := det.ScoreSequences(nil); got != nil {
		t.Fatalf("nil batch scored %v, want nil", got)
	}
	if got := det.ScoreSequences([][]int{}); got != nil {
		t.Fatalf("empty batch scored %v, want nil", got)
	}
	if got := det.DetectBatch(nil); len(got) != 0 {
		t.Fatalf("empty DetectBatch returned %d results", len(got))
	}
}

// TestConcurrentScoringFreshModel scores a fresh model — whose positional
// tables are not yet built — from several goroutines at once, through both
// the tape diagnostics and the inference path, with every kernel forced
// onto the pool. Under -race it catches unguarded lazy state anywhere on
// the scoring path.
func TestConcurrentScoringFreshModel(t *testing.T) {
	fx := newInferFixture(1500)
	withParallelism(4, func() {
		m := NewModel(DefaultConfig(), 2)
		det := NewDetector(m, fx.table)
		base := fx.ids(8)
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for l := 2; l <= 9; l++ {
					seqLen := l + g%3
					m.Features(tensor.New(2, seqLen, m.Cfg.EmbedDim))
					seqs := make([][]int, 4)
					for i := range seqs {
						seqs[i] = base[i][:min(seqLen, len(base[i]))]
					}
					det.ScoreSequences(seqs)
				}
			}(g)
		}
		wg.Wait()
	})
}
