package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// JournalName is the live-cutover journal's file name: at the runtime
// root for an in-process cutover, next to cluster.json for a fleet one.
// Its existence IS the cutover: the flip writes it before any
// double-write is acked, and its removal is the commit point.
const JournalName = "live-cutover.json"

// journalVersion is the journal format this build writes.
const journalVersion = 1

// Cutover phase names, in the order the driver reaches them per key.
// PhaseCommitted and PhaseReleased are the journal's per-key ledger
// values (a pending key is absent); all six name the driver's crash-hook
// points — "double-write" fires once after the flip and "finish" once
// before the finish, both with an empty key.
const (
	PhaseDoubleWrite = "double-write"
	PhaseTailLanded  = "tail-landed"
	PhaseStaged      = "staged"
	PhaseCommitted   = "committed"
	PhaseReleased    = "released"
	PhaseFinish      = "finish"
)

// Journal is the durable ledger of one N→N+1 live cutover — the one
// format both the in-process and the fleet path write.
type Journal struct {
	Version int `json:"version"`
	From    int `json:"from"`
	To      int `json:"to"`
	// Vnodes is the ring's virtual-node override the cutover was computed
	// with (0 = default); a resume under a different ring would move a
	// different key set.
	Vnodes int `json:"vnodes"`
	// DestNode names the fleet node hosting the new partition To-1 until
	// the manifest bump assigns it there; empty in-process.
	DestNode string `json:"dest_node,omitempty"`
	// Freeze maps donor partition index → that donor's first
	// double-written offset. Donor records below it are donor-fed;
	// records at or above it belong to the destination's WAL copy.
	Freeze map[int]uint64 `json:"freeze"`
	// Keys is the per-key ledger: moved key → PhaseCommitted |
	// PhaseReleased. Pending keys are absent.
	Keys map[string]string `json:"keys"`
}

// LoadJournal reads and validates the journal at path against the
// ring's vnode setting; absent means no cutover (nil, nil).
func LoadJournal(path string, vnodes int) (*Journal, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shard: reading cutover journal: %w", err)
	}
	j, err := decodeJournal(data)
	if err == nil {
		err = j.validate(vnodes, false)
	}
	if err != nil {
		return nil, fmt.Errorf("shard: cutover journal %s: %w", path, err)
	}
	return j, nil
}

// decodeJournal parses a journal, normalizing absent maps to empty ones.
func decodeJournal(data []byte) (*Journal, error) {
	var j Journal
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("corrupt: %w", err)
	}
	if j.Freeze == nil {
		j.Freeze = make(map[int]uint64)
	}
	if j.Keys == nil {
		j.Keys = make(map[string]string)
	}
	return &j, nil
}

// validate checks a decoded journal (or a cutover/begin body) before
// anything acts on it: one-partition growth, the ring it was computed
// on, a freeze offset for every donor, and only known per-key phases.
// fresh admits an empty freeze map — a first begin asks each
// participant to capture its own donors' offsets.
func (j *Journal) validate(vnodes int, fresh bool) error {
	if j.Version > journalVersion {
		return fmt.Errorf("format version %d is newer than this build's %d", j.Version, journalVersion)
	}
	if j.From < 1 || j.To != j.From+1 {
		return fmt.Errorf("grows %d -> %d; a live cutover grows one partition at a time from at least one", j.From, j.To)
	}
	if j.Vnodes != vnodes {
		return fmt.Errorf("was computed with Vnodes=%d but this ring uses %d; a different ring would move a different key set", j.Vnodes, vnodes)
	}
	if !fresh || len(j.Freeze) > 0 {
		if len(j.Freeze) != j.From {
			return fmt.Errorf("records %d freeze offsets for %d donor partitions", len(j.Freeze), j.From)
		}
		for i := 0; i < j.From; i++ {
			if _, ok := j.Freeze[i]; !ok {
				return fmt.Errorf("has no freeze offset for donor partition %d", i)
			}
		}
	}
	return checkPhases(j.Keys)
}

// checkPhases refuses a per-key ledger holding anything but the two
// journaled phases.
func checkPhases(keys map[string]string) error {
	for k, ph := range keys {
		if ph != PhaseCommitted && ph != PhaseReleased {
			return fmt.Errorf("has unknown phase %q for key %q", ph, k)
		}
	}
	return nil
}

// Save durably rewrites the journal (atomic + fsynced).
func (j *Journal) Save(path string) error { return writeJSONFile(path, j) }

// RemoveJournal deletes the journal — the cutover's commit point — and
// syncs its directory, returning the sync error: a removal that may not
// survive a crash has not committed.
func RemoveJournal(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("shard: removing cutover journal: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// CountPhases tallies a per-key ledger's committed and released keys.
func CountPhases(keys map[string]string) (committed, released int) {
	for _, ph := range keys {
		switch ph {
		case PhaseCommitted:
			committed++
		case PhaseReleased:
			released++
		}
	}
	return committed, released
}
