package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/shard"
)

// Every malformed journal is refused wherever one is decoded: as a
// runtime root's own journal at shard.Open, and as the fleet journal
// next to the manifest at StartNode — before any partition opens. A
// well-formed journal whose freeze point no donor WAL reaches is refused
// as its donor opens, rather than waited on forever.
func TestJournalRefusedAtOpenAndStartNode(t *testing.T) {
	cases := []struct{ name, body, want string }{
		// A freeze map with the right length but a non-donor index: donor 1
		// would open with freeze offset 0 and never feed its moving keys'
		// pre-freeze records.
		{"freeze index outside the donors", `{"version":1,"from":2,"to":3,"vnodes":0,"dest_node":"b","freeze":{"0":5,"7":9},"keys":{}}`, ""},
		{"freeze offset missing", `{"version":1,"from":2,"to":3,"vnodes":0,"dest_node":"b","freeze":{"0":5},"keys":{}}`, ""},
		{"vnodes differ from the ring", `{"version":1,"from":2,"to":3,"vnodes":7,"dest_node":"b","freeze":{"0":5,"1":5},"keys":{}}`, ""},
		{"unknown phase", `{"version":1,"from":2,"to":3,"vnodes":0,"dest_node":"b","freeze":{"0":5,"1":5},"keys":{"k":"staged"}}`, ""},
		{"multi-partition jump", `{"version":1,"from":2,"to":4,"vnodes":0,"dest_node":"b","freeze":{"0":5,"1":5},"keys":{}}`, ""},
		{"no donors", `{"version":1,"from":0,"to":1,"vnodes":0,"dest_node":"b","freeze":{},"keys":{}}`, ""},
		{"newer format", `{"version":2,"from":2,"to":3,"vnodes":0,"dest_node":"b","freeze":{"0":5,"1":5},"keys":{}}`, ""},
		{"corrupt", `{"version":1,"from":2,`, ""},
		// Well formed, but the donors' WALs are empty: no donor can ever
		// reach offset 5, so the cutover would wait on it forever.
		{"freeze offset past the donor's WAL end", `{"version":1,"from":2,"to":3,"vnodes":0,"dest_node":"b","freeze":{"0":5,"1":5},"keys":{}}`, "at offset 5, past its WAL end"},
	}
	det, interp, e := eqEnv()
	runtimeCfg := func(dir string) shard.Config {
		return shard.Config{
			Dir:      dir,
			Pipeline: pipeline.DefaultConfig(eqHint),
			Detector: det,
			Interp:   interp,
			Embedder: e,
			Sink:     &pipeline.MemorySink{},
			Metrics:  obs.NewRegistry(),
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The runtime root's own journal.
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, shard.JournalName), []byte(c.body), 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := runtimeCfg(dir)
			cfg.Shards = 3
			rt, err := shard.Open(cfg)
			if err == nil {
				rt.Close()
				t.Fatal("shard.Open accepted the journal")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("shard.Open: %v, want an error containing %q", err, c.want)
			}

			// The fleet journal next to the manifest.
			root := t.TempDir()
			manifestPath := filepath.Join(root, "cluster.json")
			m := &Manifest{
				Epoch:       1,
				Shards:      2,
				Dir:         filepath.Join(root, "data"),
				Nodes:       map[string]NodeSpec{"a": {Addr: "127.0.0.1:1"}, "b": {Addr: "127.0.0.1:2"}},
				Assignments: []string{"a", "b"},
			}
			if err := Save(manifestPath, m); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(journalPath(manifestPath), []byte(c.body), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"a", "b"} {
				n, err := StartNode(NodeConfig{ManifestPath: manifestPath, Name: name, Runtime: runtimeCfg("")})
				if err == nil {
					n.Close()
					t.Fatalf("StartNode(%s) accepted the journal", name)
				}
				if !strings.Contains(err.Error(), c.want) {
					t.Fatalf("StartNode(%s): %v, want an error containing %q", name, err, c.want)
				}
			}
		})
	}
}

// A fleet journal an earlier build wrote (indented, dest_node always
// present) resumes to completion through the one driver: crash the
// coordinator right after the first key commits, swap in that build's
// literal bytes, restart the destination node from it, and resume. The
// fleet's output must still match the single-process `-shards 3` run.
func TestJournalLegacyFleetResumes(t *testing.T) {
	keys := eqKeys(10)
	pre := genEqLines(7001, 1200, keys)
	post := genEqLines(7002, 1200, keys)
	ref := runShardReference(t, append(append([]string(nil), pre...), post...), 3)

	root := t.TempDir()
	manifestPath := filepath.Join(root, "cluster.json")
	lnA, lnB := localListener(t), localListener(t)
	addrB := lnB.Addr().String()
	m := &Manifest{
		Epoch:       1,
		Shards:      2,
		Dir:         filepath.Join(root, "data"),
		Nodes:       map[string]NodeSpec{"a": {Addr: lnA.Addr().String()}, "b": {Addr: addrB}},
		Assignments: []string{"a", "b"},
	}
	if err := Save(manifestPath, m); err != nil {
		t.Fatal(err)
	}
	a := startFleetNode(t, manifestPath, "a", lnA)
	defer a.srv.Close()
	defer a.node.Close()
	b := startFleetNode(t, manifestPath, "b", lnB)

	r, err := NewRouter(RouterConfig{ManifestPath: manifestPath, Attempts: 2, FailAfter: 100, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rsrv := httptest.NewServer(r.Handler())
	defer rsrv.Close()
	postAcked := func(lines []string) {
		t.Helper()
		for i := 0; i < len(lines); i += 100 {
			status, rr := postLines(t, rsrv.URL, lines[i:min(i+100, len(lines))])
			if status != http.StatusAccepted || rr.Rejected != 0 {
				t.Fatalf("batch at %d: status %d, %d rejected", i, status, rr.Rejected)
			}
		}
	}
	postAcked(pre)

	boom := errors.New("injected coordinator crash")
	committed := ""
	r.liveHook = func(phase, key string) error {
		if phase == shard.PhaseCommitted {
			committed = key
			return boom
		}
		return nil
	}
	if _, err := r.LiveRebalance(3, "b"); !errors.Is(err, boom) {
		t.Fatalf("LiveRebalance: err = %v, want the injected crash", err)
	}
	r.liveHook = nil

	jpath := journalPath(manifestPath)
	j, err := shard.LoadJournal(jpath, 0)
	if err != nil || j == nil {
		t.Fatalf("journal after the crash: %v, %v", j, err)
	}
	legacy := fmt.Sprintf(`{
  "version": 1,
  "from": 2,
  "to": 3,
  "vnodes": 0,
  "dest_node": "b",
  "freeze": {
    "0": %d,
    "1": %d
  },
  "keys": {
    %q: "committed"
  }
}
`, j.Freeze[0], j.Freeze[1], committed)
	if err := os.WriteFile(jpath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart the destination node from the legacy journal.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	if err := b.node.Drain(ctx); err != nil {
		cancel()
		t.Fatalf("draining node b: %v", err)
	}
	cancel()
	b.node.Kill()
	b.srv.Close()
	var lnB2 net.Listener
	for i := 0; ; i++ {
		var lerr error
		if lnB2, lerr = net.Listen("tcp", addrB); lerr == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebinding %s: %v", addrB, lerr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	b2 := startFleetNode(t, manifestPath, "b", lnB2)
	defer b2.srv.Close()
	defer b2.node.Close()
	if got := b2.node.Runtime().Owned(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("restarted dest node owns %v, want [1 2]", got)
	}

	report, err := r.LiveRebalance(3, "b")
	if err != nil {
		t.Fatalf("resuming from the legacy journal: %v", err)
	}
	if report.MovedKeys == 0 {
		t.Fatal("resumed rebalance moved no keys")
	}
	if _, err := os.Stat(jpath); !os.IsNotExist(err) {
		t.Fatalf("journal still present after the resume (stat err %v)", err)
	}
	if got := r.Manifest(); got.Shards != 3 || !reflect.DeepEqual(got.Assignments, []string{"a", "b", "b"}) {
		t.Fatalf("post-rebalance manifest: %d shards, assignments %v", got.Shards, got.Assignments)
	}
	postAcked(post)
	for _, fn := range []*fleetNode{a, b2} {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := fn.node.Drain(ctx); err != nil {
			cancel()
			t.Fatalf("draining node %s: %v", fn.node.Name(), err)
		}
		cancel()
	}
	merged := eqResult{scores: map[string][]float64{}, alerts: map[string]int{}}
	for _, fn := range []*fleetNode{a, b, b2} {
		res := fn.result()
		for k, v := range res.scores {
			merged.scores[k] = append(merged.scores[k], v...)
		}
		for sig, n := range res.alerts {
			merged.alerts[sig] += n
		}
	}
	requireEqual(t, "legacy fleet journal", merged, ref)
}
