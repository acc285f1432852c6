package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"logsynergy/internal/httpapi"
	"logsynergy/internal/shard"
)

// Networked live rebalancing: grow a running fleet N -> N+1 partitions
// under traffic. The router coordinates: it runs the same
// shard.CutoverDriver as the in-process path, with one nodeParticipant
// per node (each verb a call on the node's /admin/v1/cutover/* surface),
// its routing gate as the driver's gate, and the journal in the cluster
// directory next to cluster.json — the single source of truth for crash
// recovery on every participant:
//
//   - a NODE restarting mid-cutover reads the journal via StartNode and
//     opens straight into the protocol state (donors at the old layout
//     with the recorded freeze offsets, the destination with committed
//     splices applied), then serves passively.
//   - a ROUTER restarting (or a second, stale router reloading) reads
//     the journal and resumes double-write routing for unreleased
//     moving keys; Router.LiveRebalance called again resumes driving
//     from the journal, idempotently re-beginning every participant.
//   - the journal's removal is the cutover's commit point, strictly
//     after the epoch-bumped manifest with the new shard count is
//     installed — a crash anywhere in between resumes as finish-only.
//
// Zero acknowledged loss holds by the same argument as in-process: a
// moving key is double-written (donor + destination partition, acked
// only when both land) from the instant the journal exists until its
// entry reads "released"; donor freeze offsets are captured under each
// node's route write lock inside cutover/begin, so no acknowledged
// line ever sits past a donor's freeze point without a destination
// copy.

// journalPath locates the cutover journal next to the manifest.
func journalPath(manifestPath string) string {
	return filepath.Join(filepath.Dir(manifestPath), shard.JournalName)
}

// loadJournal reads and validates the fleet's cutover journal against
// the manifest, nil when none exists. A fleet journal must name a
// destination node the manifest knows.
func loadJournal(manifestPath string, m *Manifest) (*shard.Journal, error) {
	j, err := shard.LoadJournal(journalPath(manifestPath), m.Vnodes)
	if err != nil || j == nil {
		return nil, err
	}
	if _, ok := m.Nodes[j.DestNode]; !ok {
		return nil, fmt.Errorf("cluster: cutover journal names destination node %q, which is not in the manifest (nodes: %v)", j.DestNode, m.NodeNames())
	}
	return j, nil
}

// routeCutover is the router's routing overlay while a cutover is in
// flight: which keys move, which have been released, and where the
// destination partition lives.
type routeCutover struct {
	from, to int
	destNode string
	oldRing  *shard.Partitioner
	newRing  *shard.Partitioner

	mu       sync.RWMutex
	released map[string]bool
}

func newRouteCutover(j *shard.Journal) *routeCutover {
	rc := &routeCutover{
		from:     j.From,
		to:       j.To,
		destNode: j.DestNode,
		oldRing:  shard.NewPartitionerVnodes(j.From, j.Vnodes),
		newRing:  shard.NewPartitionerVnodes(j.To, j.Vnodes),
		released: map[string]bool{},
	}
	for k, ph := range j.Keys {
		if ph == shard.PhaseReleased {
			rc.released[k] = true
		}
	}
	return rc
}

// moving reports whether the key changes partition in this cutover.
func (rc *routeCutover) moving(key string) bool {
	return rc.oldRing.Partition(key) != rc.newRing.Partition(key)
}

func (rc *routeCutover) isReleased(key string) bool {
	rc.mu.RLock()
	defer rc.mu.RUnlock()
	return rc.released[key]
}

func (rc *routeCutover) release(key string) {
	rc.mu.Lock()
	rc.released[key] = true
	rc.mu.Unlock()
}

// reloadCutover converges the router's routing overlay on the on-disk
// journal. Called after every manifest reload and at router start: a
// journal for a cutover the router does not know about installs the
// overlay (the stale-router path — double-writes resume immediately);
// a journal the router already follows only merges newly released keys
// (the overlay object stays, because the driving coordinator mutates
// it); no journal, or one the manifest has caught up with, clears it.
func (r *Router) reloadCutover() {
	if r.cfg.ManifestPath == "" {
		return
	}
	m := r.Manifest()
	j, err := loadJournal(r.cfg.ManifestPath, m)
	if err != nil {
		return
	}
	cur := r.rcut.Load()
	if j == nil || j.To <= m.Shards {
		if cur != nil {
			r.rcut.Store(nil)
		}
		return
	}
	if cur != nil && cur.from == j.From && cur.to == j.To {
		for k, ph := range j.Keys {
			if ph == shard.PhaseReleased {
				cur.release(k)
			}
		}
		return
	}
	r.rcut.Store(newRouteCutover(j))
}

// LiveRebalance grows the fleet from the manifest's shard count to
// `to` partitions under traffic — the networked form of
// shard.Runtime.LiveRebalance, with this router as the coordinator.
// destNode names the node that hosts the new partition (empty picks
// the node owning the fewest partitions). Blocks until every moving
// key is released and the epoch-bumped manifest with the new count is
// installed; safe to call again after any crash — the journal decides
// whether it starts fresh, resumes driving, or only finishes.
func (r *Router) LiveRebalance(to int, destNode string) (*shard.RebalanceReport, error) {
	r.liveMu.Lock()
	defer r.liveMu.Unlock()
	if r.cfg.ManifestPath == "" {
		return nil, fmt.Errorf("cluster: live rebalance needs a ManifestPath (the journal lives next to the manifest)")
	}
	start := time.Now()
	_ = r.Reload() // freshest view; also installs the overlay from any existing journal
	m := r.Manifest()
	j, err := loadJournal(r.cfg.ManifestPath, m)
	if err != nil {
		return nil, err
	}
	fresh := j == nil
	switch {
	case fresh && m.Shards == to:
		return &shard.RebalanceReport{From: to, To: to, Dir: m.Dir, AlreadyBalanced: true}, nil
	case fresh && to != m.Shards+1:
		return nil, fmt.Errorf("cluster: live rebalance grows one partition at a time; fleet serves %d, asked for %d", m.Shards, to)
	case fresh:
		if destNode == "" {
			destNode = pickDestNode(m)
		} else if _, ok := m.Nodes[destNode]; !ok {
			return nil, fmt.Errorf("cluster: destination node %q is not in the manifest (nodes: %v)", destNode, m.NodeNames())
		}
		j = &shard.Journal{Version: 1, From: m.Shards, To: to, Vnodes: m.Vnodes, DestNode: destNode, Keys: map[string]string{}}
	case j.To != to:
		return nil, fmt.Errorf("cluster: a live cutover %d -> %d is journaled; finish it before asking for %d partitions", j.From, j.To, to)
	}

	d := r.fleetDriver(m, j)
	report := &shard.RebalanceReport{From: j.From, To: j.To, Dir: m.Dir}
	// m.Shards == j.To: the manifest bump landed but the journal removal
	// did not — finish-only. Otherwise flip (fresh) or re-begin every
	// participant with the journaled freezes and phases, then drive.
	if m.Shards != j.To {
		if err := d.Begin(fresh); err != nil {
			return nil, err
		}
		if report.MovedKeys, report.MovedLines, err = d.Drive(); err != nil {
			return nil, err
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	// Best-effort immediate adoption of the new epoch fleet-wide; a node
	// that misses the poke catches up through the data-path epoch fence.
	final := r.Manifest()
	for _, name := range final.NodeNames() {
		_ = r.pokeRefresh(final.Nodes[name].Addr)
	}
	report.Duration = time.Since(start)
	return report, nil
}

// fleetDriver assembles the cutover driver over the journal's
// participants. Begun installs the routing overlay, Released flips a key
// to destination-only routing, and Commit installs the epoch-bumped
// manifest with the new shard count (the journal's removal follows).
func (r *Router) fleetDriver(m *Manifest, j *shard.Journal) *shard.CutoverDriver {
	byName := map[string]shard.Participant{}
	var all []shard.Participant
	for _, name := range participants(m, j.From, j.DestNode) {
		p := &nodeParticipant{r: r, name: name, addr: m.Nodes[name].Addr}
		byName[name] = p
		all = append(all, p)
	}
	return &shard.CutoverDriver{
		Journal:      j,
		Path:         journalPath(r.cfg.ManifestPath),
		Gate:         &r.gate,
		Participants: all,
		Owner: func(p int) shard.Participant {
			if p == j.To-1 {
				return byName[j.DestNode]
			}
			return byName[m.NodeFor(p)]
		},
		Hook: r.liveHook,
		Begun: func() {
			if cur := r.rcut.Load(); cur == nil || cur.from != j.From || cur.to != j.To {
				r.rcut.Store(newRouteCutover(j))
			}
		},
		Released: func(key string) {
			if rc := r.rcut.Load(); rc != nil {
				rc.release(key)
			}
		},
		Commit: func() error {
			if cur := r.Manifest(); cur.Shards != j.To {
				nm := cur.Clone()
				nm.Epoch++
				nm.Shards = j.To
				nm.Assignments = append(nm.Assignments, j.DestNode)
				if err := Save(r.cfg.ManifestPath, nm); err != nil {
					return err
				}
				r.mu.Lock()
				err := r.installLocked(nm)
				r.mu.Unlock()
				if err != nil {
					return err
				}
			}
			r.rcut.Store(nil)
			return nil
		},
	}
}

// pickDestNode chooses the node owning the fewest partitions
// (name-ordered tiebreak) to host the new one.
func pickDestNode(m *Manifest) string {
	best, bestOwned := "", -1
	for _, name := range m.NodeNames() {
		owned := len(m.PartitionsOf(name))
		if bestOwned == -1 || owned < bestOwned {
			best, bestOwned = name, owned
		}
	}
	return best
}

// participants lists every node serving a donor partition plus the
// destination node, name-ordered.
func participants(m *Manifest, from int, destNode string) []string {
	set := map[string]bool{destNode: true}
	for p := 0; p < from && p < len(m.Assignments); p++ {
		set[m.Assignments[p]] = true
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// adminRetry retries fn against transient failures (a node restarting
// mid-splice, a connection refused during failback) with a flat short
// sleep and a hard deadline. The cutover protocol is idempotent at
// every step, so blind retry is safe.
func (r *Router) adminRetry(desc string, fn func() error) error {
	deadline := time.Now().Add(60 * time.Second)
	var err error
	for {
		if err = fn(); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: %w", desc, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// adminJSON performs one admin round trip: JSON (or empty) request
// body, epoch-stamped, JSON answer decoded into out (when non-nil).
// Non-2xx answers decode the shared error envelope into the returned
// error.
func (r *Router) adminJSON(method, addr, path string, in, out any) error {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(EpochHeader, fmt.Sprintf("%d", r.Manifest().Epoch))
	ctx, cancel := contextWithTimeout(r.cfg.RequestTimeout)
	defer cancel()
	resp, err := r.client.Do(req.WithContext(ctx))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxSpliceBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		if d := httpapi.DecodeDetail(data); d != nil {
			return fmt.Errorf("cluster: %s %s answered %d [%s]: %s", method, path, resp.StatusCode, d.Code, d.Message)
		}
		return fmt.Errorf("cluster: %s %s answered %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("cluster: decoding %s %s answer: %w", method, path, err)
		}
	}
	return nil
}

// nodeParticipant is one fleet node's side of a live cutover: each
// verb is one call on the node's /admin/v1/cutover/* surface, retried
// through transient failures (the verbs are idempotent on the node).
type nodeParticipant struct {
	r          *Router
	name, addr string
}

// call performs one retried admin round trip against the node.
func (p *nodeParticipant) call(desc, method, path string, in, out any) error {
	return p.r.adminRetry(fmt.Sprintf("%s on node %q", desc, p.name), func() error {
		return p.r.adminJSON(method, p.addr, httpapi.Prefix+"/cutover/"+path, in, out)
	})
}

func (p *nodeParticipant) BeginCutover(spec shard.CutoverSpec) (*shard.CutoverBeginResult, error) {
	var res shard.CutoverBeginResult
	if err := p.call("beginning cutover", http.MethodPost, "begin", spec, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

func (p *nodeParticipant) SyncCutover(keys map[string]string) error {
	return p.call("syncing cutover phases", http.MethodPost, "sync", map[string]map[string]string{"keys": keys}, nil)
}

func (p *nodeParticipant) PendingMovingKeys() ([]string, error) {
	var body struct {
		Keys []string `json:"keys"`
	}
	err := p.call("listing pending keys", http.MethodGet, "keys", nil, &body)
	return body.Keys, err
}

func (p *nodeParticipant) CaptureKey(key string) (shard.KeySplice, error) {
	var sp shard.KeySplice
	err := p.call(fmt.Sprintf("capturing key %q", key), http.MethodPost, "capture?key="+url.QueryEscape(key), nil, &sp)
	return sp, err
}

func (p *nodeParticipant) StageSplice(sp shard.KeySplice) error {
	return p.call(fmt.Sprintf("staging key %q", sp.Key), http.MethodPost, "stage", sp, nil)
}

func (p *nodeParticipant) InstallSplice(key string) error {
	return p.call(fmt.Sprintf("installing key %q", key), http.MethodPost, "install?key="+url.QueryEscape(key), nil, nil)
}

func (p *nodeParticipant) ForgetKey(key string) error {
	return p.call(fmt.Sprintf("forgetting key %q", key), http.MethodPost, "forget?key="+url.QueryEscape(key), nil, nil)
}

func (p *nodeParticipant) CompleteCutover(to int) error {
	return p.call("finishing cutover", http.MethodPost, fmt.Sprintf("finish?to=%d", to), nil, nil)
}

// RouterCutoverStatus is the live-rebalance progress block of the
// router's status answer, read from the journal.
type RouterCutoverStatus struct {
	From      int    `json:"from"`
	To        int    `json:"to"`
	DestNode  string `json:"dest_node"`
	Committed int    `json:"committed"`
	Released  int    `json:"released"`
}

// RouterStatus is the GET /admin/v1/status body of a front router.
type RouterStatus struct {
	Role    string               `json:"role"`
	Epoch   uint64               `json:"epoch"`
	Shards  int                  `json:"shards"`
	Nodes   map[string]bool      `json:"nodes"` // name -> alive (breaker view)
	Cutover *RouterCutoverStatus `json:"cutover,omitempty"`
	Build   httpapi.BuildInfo    `json:"build"`
}

func (r *Router) handleStatus(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		httpapi.MethodNotAllowed(w, http.MethodGet, "status accepts GET only")
		return
	}
	m, _, nodes := r.fleetView()
	st := RouterStatus{Role: "router", Epoch: m.Epoch, Shards: m.Shards, Nodes: map[string]bool{}, Build: httpapi.Build()}
	for name := range m.Nodes {
		st.Nodes[name] = !nodes[name].dead.Load()
	}
	if r.cfg.ManifestPath != "" {
		if j, err := loadJournal(r.cfg.ManifestPath, m); err == nil && j != nil {
			cs := &RouterCutoverStatus{From: j.From, To: j.To, DestNode: j.DestNode}
			cs.Committed, cs.Released = shard.CountPhases(j.Keys)
			st.Cutover = cs
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// handleRebalance is POST /admin/v1/rebalance?to=N[&node=NAME]: run the
// networked live rebalance to N partitions, blocking until it finishes.
// Method and parameters are validated explicitly through the envelope.
func (r *Router) handleRebalance(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		httpapi.MethodNotAllowed(w, http.MethodPost, "rebalance accepts POST only")
		return
	}
	raw := req.FormValue("to")
	to, err := strconv.Atoi(raw)
	if err != nil || to <= 0 {
		httpapi.Error(w, http.StatusBadRequest, httpapi.Detail{
			Code:    httpapi.CodeBadRequest,
			Message: fmt.Sprintf("rebalance needs a positive partition count: to=%q is not one", raw),
		})
		return
	}
	report, err := r.LiveRebalance(to, req.FormValue("node"))
	if err != nil {
		httpapi.Error(w, http.StatusConflict, httpapi.Detail{Code: httpapi.CodeConflict, Message: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(report)
}
