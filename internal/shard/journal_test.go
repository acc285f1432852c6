package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The two real journal shapes: an in-process cutover (no dest_node) and
// a fleet cutover (dest_node set, as earlier builds wrote it —
// indented).
const (
	inProcessJournalSeed = `{"version":1,"from":2,"to":3,"vnodes":0,"freeze":{"0":412,"1":389},"keys":{"1007":"released","1011":"committed"}}`
	fleetJournalSeed     = `{
  "version": 1,
  "from": 2,
  "to": 3,
  "vnodes": 0,
  "dest_node": "b",
  "freeze": {
    "0": 612,
    "1": 588
  },
  "keys": {
    "1003": "committed"
  }
}`
)

// FuzzJournal: arbitrary bytes either decode and validate, or return an
// error — never a panic — and a journal that validates round-trips
// byte-stable through its own encoding. The checked-in corpus
// (testdata/fuzz/FuzzJournal) holds both seed shapes above.
func FuzzJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := decodeJournal(data)
		if err != nil {
			return
		}
		if err := j.validate(j.Vnodes, false); err != nil {
			return
		}
		first, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("encoding a valid journal: %v", err)
		}
		again, err := decodeJournal(first)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", first, err)
		}
		if err := again.validate(again.Vnodes, false); err != nil {
			t.Fatalf("re-encoded journal no longer validates: %v\n%s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("journal round trip is not byte-stable:\n%s\n%s", first, second)
		}
	})
}

// Every malformed shape is refused with a reason, through the one
// validate both paths share.
func TestJournalValidate(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"freeze index missing", `{"from":2,"to":3,"freeze":{"0":5,"7":9}}`, "no freeze offset for donor partition 1"},
		{"too few freezes", `{"from":2,"to":3,"freeze":{"0":5}}`, "1 freeze offsets for 2 donor partitions"},
		{"no donors", `{"from":0,"to":1,"freeze":{}}`, "one partition at a time"},
		{"multi-partition jump", `{"from":2,"to":4,"freeze":{"0":5,"1":5}}`, "one partition at a time"},
		{"vnodes mismatch", `{"from":2,"to":3,"vnodes":7,"freeze":{"0":5,"1":5}}`, "Vnodes=7"},
		{"unknown phase", `{"from":2,"to":3,"freeze":{"0":5,"1":5},"keys":{"k":"staged"}}`, `unknown phase "staged"`},
		{"newer version", `{"version":2,"from":2,"to":3,"freeze":{"0":5,"1":5}}`, "newer"},
		{"corrupt", `{"from":2,`, "corrupt"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j, err := decodeJournal([]byte(c.body))
			if err == nil {
				err = j.validate(0, false)
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, c.want)
			}
		})
	}
	for _, seed := range []string{inProcessJournalSeed, fleetJournalSeed} {
		j, err := decodeJournal([]byte(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.validate(0, false); err != nil {
			t.Fatalf("real journal refused: %v\n%s", err, seed)
		}
	}
	// A first begin carries no freezes; a resumed one must carry them all.
	fresh := &Journal{From: 2, To: 3}
	if err := fresh.validate(0, true); err != nil {
		t.Fatalf("fresh begin spec refused: %v", err)
	}
	fresh.Freeze = map[int]uint64{0: 5}
	if err := fresh.validate(0, true); err == nil {
		t.Fatal("a begin spec with a partial freeze map was accepted")
	}
}

// The commit point reports a directory sync failure instead of
// swallowing it.
func TestJournalRemoveReportsSyncFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, JournalName)
	if err := (&Journal{Version: 1, From: 1, To: 2, Freeze: map[int]uint64{0: 1}}).Save(path); err != nil {
		t.Fatal(err)
	}
	if err := RemoveJournal(path); err != nil {
		t.Fatalf("RemoveJournal: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("journal still present (stat err %v)", err)
	}
	if err := RemoveJournal(filepath.Join(dir, "gone", JournalName)); err == nil {
		t.Fatal("RemoveJournal under a missing directory reported success; its directory sync cannot have run")
	}
}

// A journal an earlier build wrote resumes to completion through the
// one driver: crash right after the first key commits, put that build's
// literal in-process journal bytes in place, and reopen.
func TestJournalLegacyInProcessResumes(t *testing.T) {
	keys := eqKeys(10)
	pre := genEqLines(31, 1200, keys)
	post := genEqLines(32, 1200, keys)
	ref := runReference(t, append(append([]string(nil), pre...), post...))

	dir := t.TempDir()
	h := openHarness(t, dir, 2, nil)
	h.feed(t, pre)
	boom := errors.New("injected crash")
	committed := ""
	_, err := h.rt.liveRebalance(3, func(phase, key string) error {
		if phase == PhaseCommitted {
			committed = key
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("LiveRebalance error = %v, want injected crash", err)
	}
	h.drain(t)
	h.rt.Kill()

	path := filepath.Join(dir, JournalName)
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j, err := decodeJournal(written)
	if err != nil {
		t.Fatal(err)
	}
	legacy := fmt.Sprintf(`{"version":1,"from":2,"to":3,"vnodes":0,"freeze":{"0":%d,"1":%d},"keys":{%q:"committed"}}`+"\n",
		j.Freeze[0], j.Freeze[1], committed)
	if string(written) != legacy {
		t.Fatalf("in-process journal bytes drifted from the earlier builds' format:\n got %s\nwant %s", written, legacy)
	}
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := reopenHarness(t, dir, 3, h)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("legacy journal still present after resume (stat err %v)", err)
	}
	h2.feed(t, post)
	h2.drain(t)
	if err := h2.rt.Close(); err != nil {
		t.Fatalf("Close after resume: %v", err)
	}
	requireEqual(t, "legacy in-process journal", h2.result(), ref)
}
