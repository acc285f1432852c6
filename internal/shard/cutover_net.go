package shard

import (
	"fmt"
	"sort"
)

// Runtime's Participant verbs: the runtime side of the per-key protocol
// a CutoverDriver sequences — called directly in-process, and through
// the /admin/v1/cutover/* surface on a fleet node. Each holds the
// node-local invariants: BeginCutover captures freeze offsets under the
// route write lock, workers gate and park on unreleased moving keys, and
// CompleteCutover restamps owned partitions on the new layout. A node
// that crashes mid-cutover restarts into the journaled state via
// Config.Cutover and then serves passively until the coordinator resumes
// driving.

// CutoverSpec is a participant's view of a live cutover: the journal
// (freezes empty at a fresh begin — each participant captures its own
// donors' offsets and reports them back) plus whether this runtime hosts
// the destination partition To-1.
type CutoverSpec struct {
	Journal
	Dest bool `json:"dest,omitempty"`
}

// CutoverBeginResult is what BeginCutover reports back to the
// coordinator.
type CutoverBeginResult struct {
	// Freeze maps the donor partitions this runtime owns to their
	// freeze offsets (captured now, or the cutover's existing ones on an
	// idempotent re-begin).
	Freeze map[int]uint64 `json:"freeze,omitempty"`
	// Finished is set when the runtime already serves To partitions — a
	// finish landed before this begin was retried; there is nothing to
	// (re)start.
	Finished bool `json:"finished,omitempty"`
}

// CutoverStatus summarizes an active live cutover for a status answer.
type CutoverStatus struct {
	From int `json:"from"`
	To   int `json:"to"`
	// Pending counts moving keys still donor-owned on partitions this
	// runtime serves; Committed and Released count journaled phases the
	// runtime has been told about.
	Pending   int `json:"pending"`
	Committed int `json:"committed"`
	Released  int `json:"released"`
}

// BeginCutover flips this runtime into a live cutover: the route write
// lock is held while freeze offsets are captured for owned donors,
// partition To-1 opens on the new layout (when spec.Dest), and the
// cutover is published — from the caller's view one atomic step, so no
// append lands between a donor's captured freeze offset and the start of
// gating. Idempotent: re-beginning the same (From, To) syncs the spec's
// per-key phases and reports the existing freeze offsets; a runtime
// already serving To partitions answers Finished.
func (rt *Runtime) BeginCutover(spec CutoverSpec) (*CutoverBeginResult, error) {
	if err := spec.validate(rt.cfg.Vnodes, true); err != nil {
		return nil, fmt.Errorf("shard: cutover spec %w", err)
	}
	rt.routeMu.Lock()
	defer rt.routeMu.Unlock()

	if cut := rt.cut.Load(); cut != nil {
		if cut.from != spec.From || cut.to != spec.To {
			return nil, fmt.Errorf("shard: a live cutover %d -> %d is already in progress; cannot begin %d -> %d",
				cut.from, cut.to, spec.From, spec.To)
		}
		for k, ph := range spec.Keys {
			cut.advance(k, ph)
		}
		return &CutoverBeginResult{Freeze: rt.ownedFreezesLocked(cut)}, nil
	}
	if rt.cfg.Shards == spec.To {
		return &CutoverBeginResult{Finished: true}, nil
	}
	if rt.cfg.Shards != spec.From {
		return nil, fmt.Errorf("shard: cutover begins at %d partitions but this runtime serves %d", spec.From, rt.cfg.Shards)
	}

	newRing := NewPartitionerVnodes(spec.To, rt.cfg.Vnodes)
	cut := newCutover(spec.Journal, rt.part, newRing)

	// Every participant's routing table grows to To — Append indexes
	// byIdx by new-ring partitions for released keys even on pure-donor
	// nodes (where the destination slot stays nil and rejects).
	rt.byIdx = append(rt.byIdx, nil)
	var dest *partition
	if spec.Dest {
		accept := func(s int) bool { return s == 0 || s == spec.From || s == spec.To }
		var err error
		dest, err = rt.openPartitionAt(spec.To-1, openOpts{layout: spec.To, ring: newRing, acceptStamp: accept, keepSpliced: true})
		if err != nil {
			rt.byIdx = rt.byIdx[:spec.From]
			return nil, fmt.Errorf("shard: opening cutover destination partition %d: %w", spec.To-1, err)
		}
		rt.byIdx[spec.To-1] = dest
	}

	// Freeze offsets: the journal's recorded value wins (resume); owned
	// donors without one capture their next append offset now, under the
	// route write lock. Scrub already-committed keys from owned donor
	// tails (the resume-under-traffic path; a fresh begin has none) and
	// drop Spliced markers a finished earlier cutover left behind.
	for i := 0; i < spec.From; i++ {
		pt := rt.byIdx[i]
		if pt == nil {
			continue
		}
		if _, ok := spec.Freeze[i]; !ok {
			cut.freeze[i] = pt.bk.NextOffset()
		}
		pt.feedMu.Lock()
		pt.keyed.TakeTails(func(k string) bool { return cut.phase[k] != "" })
		pt.spliced = nil
		pt.forceSave = true
		pt.feedMu.Unlock()
	}
	// Roll committed keys' splices forward on an owned destination.
	if dest != nil {
		if err := rt.spliceCommitted(cut); err != nil {
			dest.cons.Close()
			dest.bk.Close()
			rt.byIdx = rt.byIdx[:spec.From]
			return nil, err
		}
		rt.parts = append(rt.parts, dest)
	}
	rt.cut.Store(cut)
	rt.reg.Gauge("shard.cutover_active").Set(1)
	if dest != nil {
		go dest.run()
	}
	return &CutoverBeginResult{Freeze: rt.ownedFreezesLocked(cut)}, nil
}

// ownedFreezesLocked collects owned donor partitions' freeze offsets.
// Caller holds routeMu.
func (rt *Runtime) ownedFreezesLocked(cut *cutover) map[int]uint64 {
	out := make(map[int]uint64)
	for i := 0; i < cut.from && i < len(rt.byIdx); i++ {
		if rt.byIdx[i] != nil {
			out[i] = cut.freeze[i]
		}
	}
	return out
}

// SyncCutover advances per-key phases from the coordinator's journal
// view. A "released" sync wakes an owned destination's parked consumer
// and flips routing to destination-only; donor tails are dropped
// separately via ForgetKey.
func (rt *Runtime) SyncCutover(keys map[string]string) error {
	if err := checkPhases(keys); err != nil {
		return fmt.Errorf("shard: cutover sync %w", err)
	}
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	cut := rt.cut.Load()
	if cut == nil {
		return fmt.Errorf("shard: no live cutover to sync (runtime serves %d partitions)", rt.cfg.Shards)
	}
	for k, ph := range keys {
		cut.advance(k, ph)
	}
	return nil
}

// PendingMovingKeys enumerates moving keys still donor-owned on the
// partitions this runtime serves, sorted — the coordinator's per-node
// work list. It refuses with errTailNotLanded until every owned donor
// has consumed its pre-freeze backlog: before that a moving key whose
// records are all still in the backlog has no tail to enumerate.
func (rt *Runtime) PendingMovingKeys() ([]string, error) {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	cut := rt.cut.Load()
	if cut == nil {
		return nil, fmt.Errorf("shard: no live cutover in progress")
	}
	for i := 0; i < cut.from; i++ {
		if pt := rt.byIdx[i]; pt != nil {
			if err := pt.tailLanded(cut.freeze[i]); err != nil {
				return nil, err
			}
		}
	}
	return rt.pendingLocked(cut), nil
}

// pendingLocked lists owned donors' moving keys not yet committed.
// Caller holds routeMu.
func (rt *Runtime) pendingLocked(cut *cutover) []string {
	var keys []string
	seen := make(map[string]bool)
	for i := 0; i < cut.from; i++ {
		pt := rt.byIdx[i]
		if pt == nil {
			continue
		}
		pt.feedMu.Lock()
		tails := pt.keyed.Tails()
		pt.feedMu.Unlock()
		for k := range tails {
			if seen[k] || !cut.moving(k) || cut.keyPhase(k) != "" {
				continue
			}
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// tailLanded reports whether the donor has consumed its full pre-freeze
// backlog — every moving key's window tail is then final, because
// records at or past the freeze point are never donor-fed. Not yet is
// errTailNotLanded (retryable); a worker that stopped short never will.
func (pt *partition) tailLanded(freeze uint64) error {
	pt.feedMu.Lock()
	consumed := pt.consumed
	pt.feedMu.Unlock()
	if consumed+1 >= freeze {
		return nil
	}
	if pt.finished() {
		if err := pt.workerErr(); err != nil {
			return fmt.Errorf("shard: donor partition %d failed before its tail landed: %w", pt.idx, err)
		}
		return fmt.Errorf("shard: donor partition %d stopped %d records before its tail landed", pt.idx, freeze-1-consumed)
	}
	return fmt.Errorf("shard: donor partition %d has consumed through offset %d of its freeze point %d: %w",
		pt.idx, consumed, freeze, errTailNotLanded)
}

// CaptureKey snapshots one moving key's splice from its donor: the
// key's final window tail plus the donor's full event space, captured
// under the donor's feed lock. Refused until the donor has consumed
// through its freeze point — a non-final tail must never ship.
func (rt *Runtime) CaptureKey(key string) (KeySplice, error) {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	cut := rt.cut.Load()
	if cut == nil {
		return KeySplice{}, fmt.Errorf("shard: no live cutover in progress")
	}
	if !cut.moving(key) {
		return KeySplice{}, fmt.Errorf("shard: key %q does not move in this cutover", key)
	}
	donorIdx := cut.oldRing.Partition(key)
	donor := rt.byIdx[donorIdx]
	if donor == nil {
		return KeySplice{}, fmt.Errorf("shard: donor partition %d for key %q is not served by this runtime", donorIdx, key)
	}
	if err := donor.tailLanded(cut.freeze[donorIdx]); err != nil {
		return KeySplice{}, err
	}
	donor.feedMu.Lock()
	defer donor.feedMu.Unlock()
	donor.keyed.Flush()
	tail, _ := donor.keyed.Tail(key)
	return KeySplice{
		Version:  1,
		Key:      key,
		Tail:     tail,
		Events:   donor.pipe.Parser().Export(),
		Patterns: donor.pipe.Library().Export(),
	}, nil
}

// StageSplice durably writes a captured splice into the destination
// partition's directory — the receiving half of the transfer endpoint.
// Idempotent (rewrites the same file).
func (rt *Runtime) StageSplice(sp KeySplice) error {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	cut := rt.cut.Load()
	if cut == nil {
		return fmt.Errorf("shard: no live cutover in progress")
	}
	if sp.Key == "" {
		return fmt.Errorf("shard: splice names no key")
	}
	destIdx := cut.newRing.Partition(sp.Key)
	dest := rt.byIdx[destIdx]
	if dest == nil {
		return fmt.Errorf("shard: destination partition %d for key %q is not served by this runtime", destIdx, sp.Key)
	}
	if err := writeJSONFile(splicePath(dest.dir, sp.Key), sp); err != nil {
		return fmt.Errorf("shard: staging splice for key %q: %w", sp.Key, err)
	}
	return nil
}

// InstallSplice applies a staged splice to the live destination
// partition (idempotent via the Spliced marker).
func (rt *Runtime) InstallSplice(key string) error {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	cut := rt.cut.Load()
	if cut == nil {
		return fmt.Errorf("shard: no live cutover in progress")
	}
	return rt.ensureSpliced(cut, key)
}

// ForgetKey drops a moved key's window tail from its donor (the next
// persist makes the drop durable; in the interim the coordinator's
// journal is what recovery trusts). Idempotent.
func (rt *Runtime) ForgetKey(key string) error {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	cut := rt.cut.Load()
	if cut == nil {
		return fmt.Errorf("shard: no live cutover in progress")
	}
	donorIdx := cut.oldRing.Partition(key)
	donor := rt.byIdx[donorIdx]
	if donor == nil {
		return fmt.Errorf("shard: donor partition %d for key %q is not served by this runtime", donorIdx, key)
	}
	donor.feedMu.Lock()
	donor.keyed.TakeTails(func(k string) bool { return k == key })
	donor.forceSave = true
	donor.feedMu.Unlock()
	return nil
}

// CompleteCutover finishes a live cutover on this runtime: every owned
// partition restamps and persists on the new layout, staged splice files
// are swept, and the routing ring swaps. The journal's removal belongs to
// the coordinator. Spliced markers stay in the destination's state until
// the next cutover begins or the runtime reopens without a journal, so a
// crash before the coordinator's removal resumes without the swept files.
// Idempotent: a runtime already serving to partitions answers nil.
func (rt *Runtime) CompleteCutover(to int) error {
	rt.routeMu.Lock()
	defer rt.routeMu.Unlock()
	cut := rt.cut.Load()
	if cut == nil {
		if rt.cfg.Shards == to {
			return nil
		}
		return fmt.Errorf("shard: no live cutover to complete (runtime serves %d partitions, finish asked for %d)", rt.cfg.Shards, to)
	}
	if cut.to != to {
		return fmt.Errorf("shard: live cutover targets %d partitions, finish asked for %d", cut.to, to)
	}
	for _, pt := range rt.parts {
		pt.feedMu.Lock()
		pt.layout = cut.to
		pt.ring = cut.newRing
		pt.forceSave = true
		err := pt.flushCommit()
		pt.feedMu.Unlock()
		if err != nil {
			return fmt.Errorf("shard: persisting partition %d on the new layout: %w", pt.idx, err)
		}
	}
	if dest := rt.byIdx[cut.to-1]; dest != nil {
		sweepSplices(dest.dir)
	}
	rt.part = cut.newRing
	rt.cfg.Shards = cut.to
	rt.reg.Gauge("shard.partitions").Set(int64(cut.to))
	rt.reg.Gauge("shard.cutover_active").Set(0)
	cut.mu.Lock()
	cut.finished = true
	cut.cond.Broadcast()
	cut.mu.Unlock()
	rt.cut.Store(nil)
	return nil
}

// CutoverStatus reports the active cutover's per-key progress as seen
// by this runtime, or nil outside one.
func (rt *Runtime) CutoverStatus() *CutoverStatus {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	cut := rt.cut.Load()
	if cut == nil {
		return nil
	}
	st := &CutoverStatus{From: cut.from, To: cut.to, Pending: len(rt.pendingLocked(cut))}
	cut.mu.Lock()
	st.Committed, st.Released = CountPhases(cut.phase)
	cut.mu.Unlock()
	return st
}

// DirectedAppendBatch appends lines straight to partition part's WAL,
// bypassing ring routing — the fleet router's double-write data path
// during a networked live cutover (the router, not this runtime, knows
// which node holds the other side of each double-write). The usual
// at-least-once rules apply: an error means none of the lines were
// acked by this partition and the caller retries.
func (rt *Runtime) DirectedAppendBatch(part int, lines []string) error {
	rt.gate.RLock()
	defer rt.gate.RUnlock()
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	if part < 0 || part >= len(rt.byIdx) {
		rt.rejectedByBP.Add(int64(len(lines)))
		return fmt.Errorf("partition %d: %w", part, ErrNotAssigned)
	}
	pt := rt.byIdx[part]
	if pt == nil {
		rt.rejectedByBP.Add(int64(len(lines)))
		return fmt.Errorf("partition %d: %w", part, ErrNotAssigned)
	}
	if _, _, err := pt.bk.AppendBatch(lines); err != nil {
		rt.rejectedByBP.Add(int64(len(lines)))
		return fmt.Errorf("partition %d: %w", part, err)
	}
	rt.routedLines.Add(int64(len(lines)))
	return nil
}
