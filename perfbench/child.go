package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"logsynergy/internal/tensor"
)

// The serving process and the load generator talk over the server's
// stdin and stdout, one JSON value per message: the server announces
// readiness, then answers each command in turn.

// command is one load-generator request to the serving process.
type command struct {
	// Cmd is "sample" (start sampling the consumer lag: the open loop
	// begins), "mark" (stop sampling and note the allocation counter: the
	// closed loop begins), "wait" (block until Windows windows are scored)
	// or "finish" (stop serving, run the gate and the traced run).
	Cmd     string `json:"cmd"`
	Windows int    `json:"windows,omitempty"`
	// Memory asks "wait" to report allocation since "mark" and the live
	// heap after a forced GC.
	Memory bool `json:"memory,omitempty"`
	// Acked names the file holding the acknowledged batches ("finish").
	Acked string `json:"acked,omitempty"`
}

// envInfo is the environment every result records.
type envInfo struct {
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Parallelism int    `json:"tensor_parallelism"`
	GoVersion   string `json:"go_version"`
	Shards      int    `json:"shards"`
}

type readyMsg struct {
	Addr   string    `json:"addr"`
	SetupS []float64 `json:"setup_s"`
	Env    envInfo   `json:"env"`
	Err    string    `json:"err,omitempty"`
}

type waitReply struct {
	LastVerdictNs int64  `json:"last_verdict_ns"`
	AllocBytes    uint64 `json:"alloc_bytes"`
	HeapInuse     uint64 `json:"heap_inuse"`
	HeapLive      uint64 `json:"heap_live"`
	Err           string `json:"err,omitempty"`
}

// servedStats are the serving stack's own counters at the end of the run.
type servedStats struct {
	PartitionLines []int     `json:"partition_lines"`
	CacheHits      int64     `json:"cache_hits"`
	CacheLookups   int64     `json:"cache_lookups"`
	RouterRetries  int64     `json:"router_retries"`
	LagSamples     []float64 `json:"lag_samples"`
}

type finishReply struct {
	Windows []windowRec       `json:"windows"`
	Gate    gateResult        `json:"gate"`
	Served  servedStats       `json:"served"`
	Layers  map[string]metric `json:"layers,omitempty"`
	Err     string            `json:"err,omitempty"`
}

// waitTimeout bounds how long the server waits for windows to be scored.
const waitTimeout = 100 * time.Second

// runServer is the serving process: it sets up setups times (keeping the
// last stack), then serves until the load generator says "finish".
func runServer(w workload, dir string, setups, windows int, spansPath string) error {
	enc := json.NewEncoder(os.Stdout)
	dec := json.NewDecoder(os.Stdin)
	rec, sink := newRecorder(windows), newAlertSink()

	var (
		st     *stack
		bundle []byte
		times  []float64
	)
	for i := 0; i < setups; i++ {
		start := time.Now()
		b, s, err := setup(w, filepath.Join(dir, fmt.Sprintf("setup%d", i)), rec, sink)
		if err != nil {
			return enc.Encode(readyMsg{Err: fmt.Sprintf("setup %d: %v", i, err)})
		}
		times = append(times, time.Since(start).Seconds())
		if bundle != nil && string(b) != string(bundle) {
			s.close()
			return enc.Encode(readyMsg{Err: "the fixed-seed bundle differs between set-ups"})
		}
		bundle = b
		if i < setups-1 {
			if err := s.close(); err != nil {
				return enc.Encode(readyMsg{Err: fmt.Sprintf("closing set-up %d: %v", i, err)})
			}
			continue
		}
		st = s
	}
	env := envInfo{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: tensor.Parallelism(),
		GoVersion:   runtime.Version(),
		Shards:      shards,
	}
	if err := enc.Encode(readyMsg{Addr: st.addr, SetupS: times, Env: env}); err != nil {
		st.close()
		return err
	}

	var (
		mark       runtime.MemStats
		sampler    *lagSampler
		lagSamples []float64
	)
	for {
		var cmd command
		if err := dec.Decode(&cmd); err != nil {
			st.close()
			if errors.Is(err, io.EOF) {
				return errors.New("load generator went away")
			}
			return err
		}
		switch cmd.Cmd {
		case "mark":
			if sampler != nil {
				lagSamples = sampler.finish()
				sampler = nil
			}
			runtime.ReadMemStats(&mark)
			if err := enc.Encode(waitReply{}); err != nil {
				return err
			}
		case "sample":
			sampler = startLagSampler(st.runtimes(), 10*time.Millisecond)
			if err := enc.Encode(waitReply{}); err != nil {
				return err
			}
		case "wait":
			ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
			err := waitWindows(ctx, rec, cmd.Windows)
			var reply waitReply
			reply.LastVerdictNs = rec.last()
			if err == nil && cmd.Memory {
				// Let every partition finish the commit that follows its
				// last verdict, so its state snapshot is neither counted
				// live nor left out of the allocations.
				for _, rt := range st.runtimes() {
					if err = rt.Drain(ctx); err != nil {
						break
					}
				}
			}
			cancel()
			if err != nil {
				reply.Err = err.Error()
			} else if cmd.Memory {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				reply.AllocBytes = ms.TotalAlloc - mark.TotalAlloc
				// Twice: the first cycle only moves sync.Pool contents to
				// the victim cache, the second frees them.
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				reply.HeapInuse, reply.HeapLive = ms.HeapInuse, ms.HeapAlloc
			}
			if err := enc.Encode(reply); err != nil {
				return err
			}
		case "finish":
			if sampler != nil {
				lagSamples = sampler.finish()
			}
			served := servedStats{LagSamples: lagSamples}
			reply := finish(w, st, bundle, dir, cmd.Acked, spansPath, rec, sink, served)
			return enc.Encode(reply)
		default:
			st.close()
			return fmt.Errorf("unknown command %q", cmd.Cmd)
		}
	}
}

// finish reads the serving stack's counters, shuts it down, and checks
// its verdicts against the single-goroutine reference (and, when
// tracing, runs the traced and allocation passes).
// Tracing is on when spansPath, where the spans are written, is set.
func finish(w workload, st *stack, bundle []byte, dir, ackedPath, spansPath string, rec *recorder, sink *alertSink, served servedStats) finishReply {
	served.PartitionLines = make([]int, shards)
	for _, rt := range st.runtimes() {
		for _, p := range rt.Owned() {
			served.PartitionLines[p] += rt.ShardStats(p).LinesCollected
		}
		hits, misses, waits := rt.Cache().Stats()
		served.CacheHits += hits + waits
		served.CacheLookups += hits + misses + waits
	}
	if st.routerMetrics != nil {
		served.RouterRetries = st.routerMetrics.Snapshot().Counters["cluster.router_retries_total"]
	}
	reply := finishReply{Served: served}
	if err := st.close(); err != nil {
		reply.Err = fmt.Sprintf("closing the serving stack: %v", err)
		return reply
	}
	reply.Windows = rec.snapshot()

	batches, err := readBatches(ackedPath)
	if err != nil {
		reply.Err = err.Error()
		return reply
	}
	model := filepath.Join(dir, "model.json")
	if err := os.WriteFile(model, bundle, 0o644); err != nil {
		reply.Err = err.Error()
		return reply
	}
	ref, err := runReference(model, batches)
	if err != nil {
		reply.Err = fmt.Sprintf("reference run: %v", err)
		return reply
	}
	reply.Gate = compare(reply.Windows, sink.snapshot(), ref)
	if spansPath != "" {
		layers, mismatches, err := tracedRun(w, model, filepath.Join(dir, "trace"), spansPath, batches, ref)
		if err != nil {
			reply.Err = fmt.Sprintf("traced run: %v", err)
			return reply
		}
		reply.Gate.TracedMismatches = mismatches
		reply.Layers = layers
	}
	return reply
}
