package shard

import (
	"errors"
	"sort"
	"sync"
	"time"
)

// Participant is one runtime's side of a live cutover: the verbs a
// coordinator sequences. *Runtime implements it in-process; the cluster
// package implements it over each node's /admin/v1/cutover/* surface.
// Every verb is idempotent, so a coordinator may retry any of them.
type Participant interface {
	BeginCutover(spec CutoverSpec) (*CutoverBeginResult, error)
	SyncCutover(keys map[string]string) error
	PendingMovingKeys() ([]string, error)
	CaptureKey(key string) (KeySplice, error)
	StageSplice(sp KeySplice) error
	InstallSplice(key string) error
	ForgetKey(key string) error
	CompleteCutover(to int) error
}

// errTailNotLanded is the runtime's retryable refusal: a donor has not
// yet consumed its pre-freeze backlog, so its window tails are not
// final. (A fleet node's refusal arrives as a 409 its participant
// retries instead.)
var errTailNotLanded = errors.New("donor tail has not landed")

// CutoverDriver runs one journaled N→N+1 live cutover over its
// participants — the one coordinator for both the in-process and the
// fleet path:
//
//  1. Begin (flip). Under the gate, every participant begins: donors
//     capture freeze offsets, the destination opens on the new layout.
//     A fresh flip then writes the journal, still under the gate, so it
//     is durable before any double-write is acked.
//  2. Drive. Keys the journal already committed roll forward; then every
//     pending moving key runs capture → stage → commit (journal) →
//     install → forget → release (journal) until no donor holds one.
//  3. Finish. Under the gate, every participant restamps on the new
//     layout and swaps rings, Commit runs, and the journal is removed —
//     the commit point; no append lands between the removal and the
//     swap.
//
// The gate excludes appends: the runtime's intake gate in-process, the
// front router's routing gate for a fleet.
type CutoverDriver struct {
	Journal *Journal
	// Path is the journal's file.
	Path string
	// Gate is write-locked across the flip and the finish.
	Gate sync.Locker
	// Participants lists every runtime serving a donor partition or the
	// destination, each once.
	Participants []Participant
	// Owner returns the participant serving partition p on the grown
	// layout (the destination is partition To-1).
	Owner func(p int) Participant
	// Hook, when set, is invoked at each phase point (see PhaseDoubleWrite
	// and friends). Returning an error aborts exactly there, leaving the
	// journal in place — the crash-injection suites then prove a resume
	// finishes the cutover.
	Hook func(phase, key string) error
	// Begun runs under the gate once the participants have begun and the
	// journal is durable (the fleet installs its routing overlay here).
	Begun func()
	// Released is told each key the driver releases.
	Released func(key string)
	// Commit runs under the gate after every participant completed, just
	// before the journal's removal (the fleet's manifest bump).
	Commit func() error

	// abort undoes a fresh begin whose journal could not be written, under
	// the gate (in-process only: nothing has been double-written yet).
	abort   func()
	oldRing *Partitioner
}

// Begin flips every participant into the cutover. fresh captures the
// freeze offsets and writes the journal; otherwise the participants
// re-begin from the journal's freezes and phases (a resumed drive).
func (d *CutoverDriver) Begin(fresh bool) error {
	d.Gate.Lock()
	err := d.begin(fresh)
	if err != nil && fresh && d.abort != nil {
		d.abort()
	}
	d.Gate.Unlock()
	if err != nil || !fresh {
		return err
	}
	return d.hook(PhaseDoubleWrite, "")
}

// begin is Begin's gated body.
func (d *CutoverDriver) begin(fresh bool) error {
	j := d.Journal
	dest := d.Owner(j.To - 1)
	freeze := make(map[int]uint64, j.From)
	for _, p := range d.Participants {
		res, err := p.BeginCutover(CutoverSpec{Journal: *j, Dest: p == dest})
		if err != nil {
			return err
		}
		for i, off := range res.Freeze {
			freeze[i] = off
		}
	}
	if fresh {
		j.Freeze = freeze
		if err := j.validate(j.Vnodes, false); err != nil {
			return err
		}
		if err := j.Save(d.Path); err != nil {
			return err
		}
	}
	if d.Begun != nil {
		d.Begun()
	}
	return nil
}

// Drive runs the per-key protocol until no donor holds a pending moving
// key. Records past the freeze point never re-enter donor tails, so the
// pending set can only shrink; the empty round proves convergence.
func (d *CutoverDriver) Drive() (movedKeys, movedLines int, err error) {
	var committed []string
	for k, ph := range d.Journal.Keys {
		if ph == PhaseCommitted {
			committed = append(committed, k)
		}
	}
	sort.Strings(committed)
	for _, k := range committed {
		if err := d.release(k); err != nil {
			return movedKeys, movedLines, err
		}
		movedKeys++
	}
	for {
		pending, err := d.pending()
		if err != nil || len(pending) == 0 {
			return movedKeys, movedLines, err
		}
		for _, k := range pending {
			lines, err := d.move(k)
			if err != nil {
				return movedKeys, movedLines, err
			}
			movedKeys++
			movedLines += lines
		}
	}
}

// Finish ends the cutover: every participant restamps and swaps rings,
// Commit runs, and the journal is removed — all under the gate.
func (d *CutoverDriver) Finish() error {
	if err := d.hook(PhaseFinish, ""); err != nil {
		return err
	}
	d.Gate.Lock()
	defer d.Gate.Unlock()
	for _, p := range d.Participants {
		if err := p.CompleteCutover(d.Journal.To); err != nil {
			return err
		}
	}
	if d.Commit != nil {
		if err := d.Commit(); err != nil {
			return err
		}
	}
	return RemoveJournal(d.Path)
}

// pending unions every participant's pending moving keys, sorted for a
// deterministic cutover order. Each list is final only once that
// participant's donors have landed their pre-freeze backlog.
func (d *CutoverDriver) pending() ([]string, error) {
	seen := make(map[string]bool)
	var keys []string
	for _, p := range d.Participants {
		var got []string
		err := untilLanded(func() (err error) {
			got, err = p.PendingMovingKeys()
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, k := range got {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// move cuts one pending key over: capture on the donor (its tail is
// final — the donor feeds nothing past its freeze point), stage on the
// destination, commit in the journal — from here the key is
// destination-owned and a resume rolls it forward — then release.
// Returns the number of window-tail lines that moved.
func (d *CutoverDriver) move(key string) (int, error) {
	var sp KeySplice
	err := untilLanded(func() (err error) {
		sp, err = d.donor(key).CaptureKey(key)
		return err
	})
	if err != nil {
		return 0, err
	}
	if err := d.hook(PhaseTailLanded, key); err != nil {
		return 0, err
	}
	if err := d.Owner(d.Journal.To - 1).StageSplice(sp); err != nil {
		return 0, err
	}
	if err := d.hook(PhaseStaged, key); err != nil {
		return 0, err
	}
	if err := d.record(key, PhaseCommitted); err != nil {
		return 0, err
	}
	if err := d.hook(PhaseCommitted, key); err != nil {
		return 0, err
	}
	return len(sp.Tail.Lines), d.release(key)
}

// release takes a committed key the rest of the way: install its staged
// splice on the destination, forget its tail on the donor, journal the
// release, and stop double-writing it.
func (d *CutoverDriver) release(key string) error {
	if err := d.Owner(d.Journal.To - 1).InstallSplice(key); err != nil {
		return err
	}
	if err := d.donor(key).ForgetKey(key); err != nil {
		return err
	}
	if err := d.record(key, PhaseReleased); err != nil {
		return err
	}
	if d.Released != nil {
		d.Released(key)
	}
	return d.hook(PhaseReleased, key)
}

// record journals a key's new phase durably, then tells the key's donor
// and destination participants. The tell is best-effort: a participant
// that misses it re-reads the journal when it restarts, so it only
// wakes a parked destination consumer now instead of then.
func (d *CutoverDriver) record(key, phase string) error {
	d.Journal.Keys[key] = phase
	if err := d.Journal.Save(d.Path); err != nil {
		return err
	}
	phases := map[string]string{key: phase}
	donor, dest := d.donor(key), d.Owner(d.Journal.To-1)
	_ = donor.SyncCutover(phases)
	if dest != donor {
		_ = dest.SyncCutover(phases)
	}
	return nil
}

// donor returns the participant serving key's donor partition.
func (d *CutoverDriver) donor(key string) Participant {
	if d.oldRing == nil {
		d.oldRing = NewPartitionerVnodes(d.Journal.From, d.Journal.Vnodes)
	}
	return d.Owner(d.oldRing.Partition(key))
}

// hook invokes the optional crash hook.
func (d *CutoverDriver) hook(phase, key string) error {
	if d.Hook == nil {
		return nil
	}
	return d.Hook(phase, key)
}

// untilLanded retries fn while it refuses with errTailNotLanded — the
// driver's wait for a donor's pre-freeze backlog. Any other error, such
// as a donor whose worker stopped short of its freeze point, is final.
func untilLanded(fn func() error) error {
	for {
		if err := fn(); !errors.Is(err, errTailNotLanded) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}
