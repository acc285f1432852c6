package drain

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParse throws arbitrary byte soup at the online parser — malformed
// lines, truncated multibyte runes, control characters, pathological
// whitespace — and holds it to its structural invariants: never panic,
// return a valid event id backed by the event list, keep template and
// params consistent, and assign the same event to an immediately
// re-parsed identical line.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		" ",
		"\t\n\r",
		"service heartbeat ok seq 42",
		"user alice login from 10.0.0.5",
		"Receiving block blk_-1608999687919862906 src: /10.250.19.102:54106",
		"0x1f deadbeefcafe 255.255.255.255:65535",
		strings.Repeat("a ", 300),
		strings.Repeat("\x00", 16),
		"日志 解析 器 收到 消息 编号 42",
		"truncated multibyte \xe6\x97",
		"<*> already has wildcards <*> in it",
		"tab\tseparated\tfields\t1\t2\t3",
		"mixed 中文 and ascii ids 0xabc123 10.0.0.1",
		"\xff\xfe\xfd invalid utf8 bytes",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		p := NewDefault()
		// Warm the tree with realistic traffic so fuzz lines also exercise
		// group matching and template updating, not just group creation.
		p.Parse("service heartbeat ok seq 42")
		p.Parse("user alice login from 10.0.0.5")

		m := p.Parse(line)
		if m.EventID < 0 || m.EventID >= p.NumEvents() {
			t.Fatalf("event id %d outside [0,%d)", m.EventID, p.NumEvents())
		}
		events := p.Events()
		if events[m.EventID].Template != m.Template {
			t.Fatalf("match template %q != event %d template %q", m.Template, m.EventID, events[m.EventID].Template)
		}
		if n := strings.Count(m.Template, Wildcard); len(m.Params) > n {
			t.Fatalf("%d params for %d wildcard positions in %q", len(m.Params), n, m.Template)
		}
		if !utf8.ValidString(line) {
			// Invalid input must not poison the parser; valid lines still parse.
			p.Parse("service heartbeat ok seq 43")
		}

		// Parsing the identical line again must hit the same event.
		m2 := p.Parse(line)
		if m2.EventID != m.EventID {
			t.Fatalf("re-parse of %q moved from event %d to %d", line, m.EventID, m2.EventID)
		}
	})
}

// FuzzLoadState throws arbitrary bytes at the saved-state decoder and
// follows an accepted state through every consumer of the format:
// LoadState must never panic and must refuse non-contiguous ids; an
// accepted state must Export exactly what was saved and survive a
// SaveState/LoadState round trip; and Merge must splice it into a warmed
// parser idempotently, translating every donor id to a local event that
// carries the donor's template. Seeds are checked in under
// testdata/fuzz/FuzzLoadState.
func FuzzLoadState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadState(bytes.NewReader(data), DefaultConfig())
		var in []SavedEvent
		decoded := json.NewDecoder(bytes.NewReader(data)).Decode(&in) == nil
		contiguous := true
		for i, se := range in {
			contiguous = contiguous && se.ID == i
		}
		if err != nil {
			if decoded && contiguous {
				t.Fatalf("LoadState refused a decodable contiguous state: %v", err)
			}
			return
		}
		if !contiguous {
			t.Fatalf("LoadState accepted non-contiguous ids %+v", in)
		}
		out := p.Export()
		if !slices.Equal(out, in) {
			t.Fatalf("Export %+v != loaded %+v", out, in)
		}
		var buf bytes.Buffer
		if err := p.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		p2, err := LoadState(&buf, DefaultConfig())
		if err != nil {
			t.Fatalf("reloading a saved state: %v", err)
		}
		if again := p2.Export(); !slices.Equal(again, out) {
			t.Fatalf("save/load round trip %+v != %+v", again, out)
		}
		p.Parse("service heartbeat ok seq 42") // an imported tree must keep parsing

		warm := NewDefault()
		warm.Parse("service heartbeat ok seq 42")
		warm.Parse("user alice login from 10.0.0.5")
		tr, err := warm.Merge(out)
		if err != nil {
			t.Fatalf("Merge: %v", err)
		}
		events := warm.Events()
		for _, se := range out {
			local, ok := tr[se.ID]
			if !ok || local < 0 || local >= len(events) {
				t.Fatalf("donor id %d translated to %d (ok=%v) with %d local events", se.ID, local, ok, len(events))
			}
			if events[local].Template != se.Template {
				t.Fatalf("donor id %d (%q) translated to local %d (%q)", se.ID, se.Template, local, events[local].Template)
			}
		}
		tr2, err := warm.Merge(out)
		if err != nil || warm.NumEvents() != len(events) {
			t.Fatalf("re-merge: err %v, %d events, want %d", err, warm.NumEvents(), len(events))
		}
		for id, local := range tr {
			if tr2[id] != local {
				t.Fatalf("re-merge moved donor id %d from %d to %d", id, local, tr2[id])
			}
		}
		warm.Parse("user bob login from 10.0.0.6")
	})
}
