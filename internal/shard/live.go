package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"logsynergy/internal/drain"
	"logsynergy/internal/pipeline"
)

// Live rebalancing grows an OPEN runtime from N to N+1 partitions while
// traffic keeps flowing. One CutoverDriver (cutover.go) runs the
// journaled per-key protocol; this runtime is its in-process
// participant, the journal sits at the runtime root, and the runtime's
// intake gate is the driver's gate. The runtime side of each step:
//
//   - Begin: the destination opens on the new layout and every donor's
//     next append offset is captured as its freeze point. From then on
//     every moving key's intake is double-written — appended to both the
//     donor's WAL (which stops feeding it at the freeze point) and the
//     destination's WAL (whose consumer parks before any unreleased
//     moving key's record). Non-moving keys are untouched: same
//     partition, same detection, same acks.
//   - Per key: capture snapshots the key's WindowTail plus the donor's
//     full event space once the donor has landed its pre-freeze backlog;
//     stage writes it to a splice file in the destination's directory;
//     install merges it into the live destination (donor event ids
//     translated by template, pattern verdicts deduped, tail restored)
//     and forget drops it from the donor; a "released" sync wakes the
//     destination's parked consumer for the key.
//   - Complete: every partition restamps and persists on the new layout
//     and the router swaps rings.
//
// Crash safety is a per-key ledger: reopening a root whose journal
// exists (the runtime must come back with Shards = To) opens every
// partition into the journaled cutover (openMidCutover), re-applies any
// committed-but-unspliced key from its staged file (destinations that
// already persisted the splice carry a Spliced marker in shard-state v3
// and are left alone), discards nothing a pending key needs — its tail
// is still the donor's, records past the freeze point live in the
// destination's WAL — and then drives the cutover to completion before
// Open returns. Every key is on exactly one side at every instant: donor
// until its journal entry says "committed", destination after.
//
// Double-written records are exactly the donor-WAL records at offsets ≥
// the freeze point for moving keys: the donor consumes and acks them but
// never feeds them (the destination's copy is the one that counts), and
// after the cutover the ownership check — a record whose key no longer
// routes to the partition under its stamped layout is skipped — keeps
// redelivered copies out of detection forever.

// spliceFilePrefix names staged per-key splice files inside the
// destination partition's directory.
const spliceFilePrefix = "cutover-splice-"

// KeySplice is one staged per-key handoff: the moving key's window tail
// plus the donor's full event space at capture time (the key's parse
// history is scattered through it, and translation dedups by template).
// It is the payload of the networked cutover's transfer endpoint: a
// donor node captures it, the coordinator ships it, and the
// destination node stages it as a splice file.
type KeySplice struct {
	Version  int                     `json:"version"`
	Key      string                  `json:"key"`
	Tail     pipeline.WindowTail     `json:"tail"`
	Events   []drain.SavedEvent      `json:"events,omitempty"`
	Patterns []pipeline.PatternEntry `json:"patterns,omitempty"`
}

// splicePath renders a key's staged splice file inside the destination
// partition's directory (the key itself may not be filename-safe).
func splicePath(dir, key string) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x.json", spliceFilePrefix, hashKey(key)))
}

// sweepSplices removes staged splice files — run when a participant
// completes a cutover and by journal-less opens (a crash around the
// finish can leave stragglers that mean nothing without the journal).
func sweepSplices(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if len(name) > len(spliceFilePrefix) && name[:len(spliceFilePrefix)] == spliceFilePrefix {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// cutover is the in-memory state of a live rebalance, published to the
// router and every worker through Runtime.cut. Rings and freeze offsets
// are immutable after publication; the per-key phase ledger, finished
// and closed are guarded by mu, with cond waking the destination's
// parked consumer on every transition.
type cutover struct {
	from, to int
	oldRing  *Partitioner
	newRing  *Partitioner
	freeze   []uint64 // per-donor first double-written offset

	mu       sync.Mutex
	cond     *sync.Cond
	phase    map[string]string // key → PhaseCommitted | PhaseReleased; pending keys absent
	finished bool              // set at finish; stale holders treat every key as released
	closed   bool              // set by Kill/Close so a parked consumer can exit
}

// newCutover builds the in-memory cutover state from a journal's shape:
// freeze offsets and phases are copied (a fresh begin has neither yet).
func newCutover(j Journal, oldRing, newRing *Partitioner) *cutover {
	c := &cutover{
		from:    j.From,
		to:      j.To,
		oldRing: oldRing,
		newRing: newRing,
		freeze:  make([]uint64, j.From),
		phase:   make(map[string]string, len(j.Keys)),
	}
	for i, off := range j.Freeze {
		c.freeze[i] = off
	}
	for k, ph := range j.Keys {
		c.phase[k] = ph
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// moving reports whether the cutover moves key between partitions.
func (c *cutover) moving(key string) bool {
	return c.oldRing.Partition(key) != c.newRing.Partition(key)
}

// keyPhase returns the key's current phase, "" while pending (a finished
// cutover reads as all-released for workers still holding the pointer).
func (c *cutover) keyPhase(key string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return PhaseReleased
	}
	return c.phase[key]
}

// advance moves a key's phase forward (never back — syncs can arrive
// out of order) and wakes the destination's parked consumer.
func (c *cutover) advance(key, phase string) {
	c.mu.Lock()
	if cur := c.phase[key]; cur != PhaseReleased && cur != phase {
		c.phase[key] = phase
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// interrupt marks the cutover closed (crash or shutdown) and wakes any
// parked consumer so it can exit.
func (c *cutover) interrupt() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// LiveRebalance grows this open runtime from its current partition count
// N to to=N+1 under traffic: intake stays open throughout (moving keys
// double-write during their window), non-moving keys never stop
// detecting or acking, and each moving key cuts over individually as its
// donor window tail lands. On success the runtime serves the new layout;
// on error the cutover journal stays in place and a process restart
// (Open at the new shard count) resumes and finishes it. Grows one
// partition per call — run it repeatedly for larger growth.
func (rt *Runtime) LiveRebalance(to int) (*RebalanceReport, error) {
	return rt.liveRebalance(to, nil)
}

// liveRebalance implements LiveRebalance with the driver's crash hook.
func (rt *Runtime) liveRebalance(to int, hook func(phase, key string) error) (*RebalanceReport, error) {
	start := time.Now()
	rt.liveMu.Lock()
	defer rt.liveMu.Unlock()
	if rt.cut.Load() != nil {
		return nil, errors.New("shard: a live cutover is already in progress")
	}
	if rt.cfg.Subset != nil {
		return nil, errors.New("shard: live rebalance requires a runtime serving every partition; " +
			"this one opened a subset (cluster node mode)")
	}
	from := rt.Shards()
	if to == from {
		return &RebalanceReport{From: from, To: to, Dir: rt.cfg.Dir, AlreadyBalanced: true, Duration: time.Since(start)}, nil
	}
	if to != from+1 {
		return nil, fmt.Errorf("shard: live rebalance grows one partition at a time (%d -> %d); got -to %d", from, from+1, to)
	}
	d := rt.localDriver(&Journal{Version: journalVersion, From: from, To: to, Vnodes: rt.cfg.Vnodes,
		Keys: make(map[string]string)}, hook)
	if err := d.Begin(true); err != nil {
		return nil, err
	}
	moved, lines, err := d.Drive()
	if err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return &RebalanceReport{
		From:       from,
		To:         to,
		Dir:        rt.cfg.Dir,
		MovedKeys:  moved,
		MovedLines: lines,
		Duration:   time.Since(start),
	}, nil
}

// localDriver drives a cutover journaled at this runtime's root, with
// the runtime as its only participant and its intake gate as the gate.
func (rt *Runtime) localDriver(j *Journal, hook func(phase, key string) error) *CutoverDriver {
	return &CutoverDriver{
		Journal:      j,
		Path:         filepath.Join(rt.cfg.Dir, JournalName),
		Gate:         &rt.gate,
		Participants: []Participant{rt},
		Owner:        func(int) Participant { return rt },
		Hook:         hook,
		abort:        rt.abortBegin,
	}
}

// abortBegin undoes a begin whose journal never became durable: the
// destination closes and the cutover is withdrawn. The caller holds the
// intake gate, so nothing was double-written in between; the
// destination directory is at most an empty shell a later attempt
// reopens.
func (rt *Runtime) abortBegin() {
	rt.routeMu.Lock()
	cut := rt.cut.Load()
	if cut == nil {
		rt.routeMu.Unlock()
		return
	}
	dest := rt.byIdx[cut.to-1]
	rt.cut.Store(nil)
	rt.parts = rt.parts[:len(rt.parts)-1]
	rt.byIdx = rt.byIdx[:cut.from]
	rt.routeMu.Unlock()
	cut.interrupt()
	dest.killed.Store(true)
	dest.bk.Kill()
	<-dest.done
	dest.cons.Close()
	rt.reg.Gauge("shard.cutover_active").Set(0)
}

// ensureSpliced installs a committed key's staged splice into its live
// destination: donor events merge by template into the running parser,
// the event table extends to cover new ids, pattern verdicts translate
// into the destination's id space (its own verdicts win), and the key's
// window tail restores. Idempotent — a destination whose state already
// carries the key's Spliced marker is left alone. The staged file is
// present otherwise: it was fsynced before the journal committed the key.
func (rt *Runtime) ensureSpliced(cut *cutover, key string) error {
	destIdx := cut.newRing.Partition(key)
	dest := rt.byIdx[destIdx]
	if dest == nil {
		return fmt.Errorf("shard: destination partition %d for key %q is not open in this runtime", destIdx, key)
	}
	dest.feedMu.Lock()
	done := dest.spliced[key]
	dest.feedMu.Unlock()
	if done {
		return nil
	}
	path := splicePath(dest.dir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("shard: reading splice file %s: %w", path, err)
	}
	var sp KeySplice
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("shard: corrupt splice file %s: %w", path, err)
	}

	dest.feedMu.Lock()
	defer dest.feedMu.Unlock()
	if dest.spliced[key] {
		return nil
	}
	translate, err := dest.pipe.Parser().Merge(sp.Events)
	if err != nil {
		return fmt.Errorf("shard: merging donor events for key %q: %w", key, err)
	}
	if err := dest.pipe.SyncTable(); err != nil {
		return fmt.Errorf("shard: extending destination event table for key %q: %w", key, err)
	}
	lib := dest.pipe.Library()
	lib.Import(translatePatterns(sp.Patterns, translate, lib.Contains))
	if len(sp.Tail.Lines) > 0 || sp.Tail.SincePrev > 0 {
		dest.keyed.Restore(map[string]pipeline.WindowTail{key: sp.Tail})
	}
	if dest.spliced == nil {
		dest.spliced = make(map[string]bool)
	}
	dest.spliced[key] = true
	dest.forceSave = true
	return nil
}

// spliceCommitted re-applies the splice of every journaled key whose
// destination state predates it. Run before the destination's worker
// starts: a released key's records are not gated and must never be fed
// ahead of its restored tail.
func (rt *Runtime) spliceCommitted(cut *cutover) error {
	moved := make([]string, 0, len(cut.phase))
	for k := range cut.phase {
		moved = append(moved, k)
	}
	sort.Strings(moved)
	for _, k := range moved {
		if err := rt.ensureSpliced(cut, k); err != nil {
			return err
		}
	}
	return nil
}
