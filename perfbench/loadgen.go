package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"logsynergy/internal/shard"
)

// maxAttempts is how many times the generator posts a line before it
// counts the line as refused.
const maxAttempts = 3

// ackedLine is one line the intake acknowledged, in the key's order: when
// it was due (0 for closed-loop lines, which have no schedule) and its
// ground-truth label.
type ackedLine struct {
	dueNs int64
	anom  bool
}

// loadgen is the load generator's client side: it posts batches to the
// intake over one keep-alive connection and accounts for every line.
type loadgen struct {
	url    string
	client *http.Client
	fleet  bool
	part   *shard.Partitioner

	attempted int
	refused   int
	retries   int
	// perKey holds each key's acknowledged lines in acknowledgement order;
	// batches holds the acknowledged lines of each post, in order.
	perKey  [][]ackedLine
	batches [][]string
}

func newLoadgen(addr string, fleet bool) *loadgen {
	return &loadgen{
		url: "http://" + addr + "/ingest",
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		},
		fleet:  fleet,
		part:   shard.NewPartitioner(shards),
		perKey: make([][]ackedLine, numKeys),
	}
}

// ingestAnswer is the part of an /ingest answer (the runtime's or the
// front router's) that says which lines were not acknowledged.
type ingestAnswer struct {
	Partitions []struct {
		Partition int `json:"partition"`
		Rejected  int `json:"rejected"`
	} `json:"partitions"`
	RejectedLines []int `json:"rejected_lines"`
}

// post sends one batch, retrying refused lines up to maxAttempts times,
// and records what was acknowledged. A line still refused after that is
// counted and dropped from its key's stream.
func (g *loadgen) post(lines []benchLine, dueNs int64) error {
	g.attempted += len(lines)
	pending := lines
	var acked []string
	for attempt := 1; len(pending) > 0; attempt++ {
		if attempt > maxAttempts {
			g.refused += len(pending)
			break
		}
		if attempt > 1 {
			g.retries++
			time.Sleep(time.Duration(attempt) * 10 * time.Millisecond)
		}
		refused, err := g.postOnce(pending)
		if err != nil {
			return err
		}
		next := pending[:0:0]
		for i, l := range pending {
			if refused[i] {
				next = append(next, l)
				continue
			}
			acked = append(acked, l.text)
			g.perKey[l.key] = append(g.perKey[l.key], ackedLine{dueNs: dueNs, anom: l.anom})
		}
		pending = next
	}
	if len(acked) > 0 {
		g.batches = append(g.batches, acked)
	}
	return nil
}

// postOnce posts lines once and returns which of them were refused.
func (g *loadgen) postOnce(lines []benchLine) ([]bool, error) {
	var body strings.Builder
	for _, l := range lines {
		body.WriteString(l.text)
		body.WriteByte('\n')
	}
	resp, err := g.client.Post(g.url, "text/plain", strings.NewReader(body.String()))
	if err != nil {
		return nil, fmt.Errorf("posting %d lines: %w", len(lines), err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("reading the /ingest answer: %w", err)
	}
	refused := make([]bool, len(lines))
	switch resp.StatusCode {
	case http.StatusAccepted:
		return refused, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
	default:
		return nil, fmt.Errorf("/ingest answered %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var ans ingestAnswer
	if err := json.Unmarshal(data, &ans); err != nil {
		return nil, fmt.Errorf("decoding a %s answer: %w", resp.Status, err)
	}
	if g.fleet && resp.StatusCode == http.StatusTooManyRequests {
		// The router names exactly the lines to retry.
		for _, i := range ans.RejectedLines {
			if i < 0 || i >= len(refused) {
				return nil, errors.New("router named a rejected line outside the batch")
			}
			refused[i] = true
		}
		return refused, nil
	}
	// The runtime refuses whole partition shares.
	bad := make(map[int]bool)
	for _, p := range ans.Partitions {
		if p.Rejected > 0 {
			bad[p.Partition] = true
		}
	}
	if len(ans.Partitions) == 0 {
		for i := range refused {
			refused[i] = true
		}
		return refused, nil
	}
	for i, l := range lines {
		refused[i] = bad[g.part.Partition(keyName(l.key))]
	}
	return refused, nil
}

// ackedWindows returns how many windows the acknowledged lines complete.
func (g *loadgen) ackedWindows() int {
	n := 0
	for _, lines := range g.perKey {
		n += windowsAfter(len(lines))
	}
	return n
}

// openLoop is the outcome of the open-loop phase.
type openLoop struct {
	lateMs []float64 // generator lateness per batch
	postMs []float64 // intake round trip per post
}

// runOpenLoop offers lines at rate lines/s in batches due every period.
// One goroutine releases each batch at its due time and records how late
// it was; the calling goroutine posts batches in release order, so a slow
// intake delays later batches (which their verdict latency, measured
// from the due time, then includes) but never the schedule itself.
func (g *loadgen) runOpenLoop(lines []benchLine, rate float64, period time.Duration) (openLoop, error) {
	per := int(rate * period.Seconds())
	if per < 1 {
		per = 1
	}
	type job struct {
		lines []benchLine
		dueNs int64
	}
	var jobs []job
	for i := 0; i < len(lines); i += per {
		jobs = append(jobs, job{lines: lines[i:min(i+per, len(lines))]})
	}
	// Sized to the whole schedule: the scheduler must never wait on the
	// poster, or a slow intake would show up as generator lateness.
	ready := make(chan job, len(jobs))
	res := openLoop{lateMs: make([]float64, len(jobs))}
	start := time.Now().Add(20 * time.Millisecond)
	go func() {
		defer close(ready)
		for i, j := range jobs {
			due := start.Add(time.Duration(i) * period)
			time.Sleep(time.Until(due))
			res.lateMs[i] = float64(time.Since(due)) / 1e6
			j.dueNs = due.UnixNano()
			ready <- j
		}
	}()
	var err error
	for j := range ready {
		if err != nil {
			continue // drain the scheduler so it exits
		}
		t := time.Now()
		err = g.post(j.lines, j.dueNs)
		res.postMs = append(res.postMs, float64(time.Since(t))/1e6)
	}
	return res, err
}
