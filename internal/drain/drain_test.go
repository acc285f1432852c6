package drain

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestSameTemplateDifferentParams(t *testing.T) {
	p := NewDefault()
	m1 := p.Parse("Connection refused from 10.0.0.1:8080 after 3 retries")
	m2 := p.Parse("Connection refused from 192.168.1.5:9090 after 7 retries")
	if m1.EventID != m2.EventID {
		t.Fatalf("same-shaped messages got different events: %d vs %d", m1.EventID, m2.EventID)
	}
	if len(m2.Params) != 2 {
		t.Fatalf("want 2 params (ip, retries), got %v", m2.Params)
	}
}

func TestDifferentStructuresSplit(t *testing.T) {
	p := NewDefault()
	m1 := p.Parse("kernel panic in module alpha")
	m2 := p.Parse("user login ok for bob")
	if m1.EventID == m2.EventID {
		t.Fatal("structurally different messages must not share an event")
	}
}

func TestWildcardMergingUpdatesTemplate(t *testing.T) {
	p := NewDefault()
	// Differing tokens must sit past the depth-2 routing prefix, otherwise
	// Drain routes the messages to different leaves by design.
	p.Parse("disk scan failed with error EIO")
	m := p.Parse("disk scan failed with error ENOSPC")
	if !strings.Contains(m.Template, Wildcard) {
		t.Fatalf("merged template should contain wildcard: %q", m.Template)
	}
	if got := len(m.Params); got != 1 {
		t.Fatalf("want 1 param, got %d (%v)", got, m.Params)
	}
	if m.Params[0] != "ENOSPC" {
		t.Fatalf("want param ENOSPC, got %v", m.Params)
	}
}

func TestEventCounts(t *testing.T) {
	p := NewDefault()
	for i := 0; i < 5; i++ {
		p.Parse(fmt.Sprintf("request %d completed in %d ms", i, i*10))
	}
	evs := p.Events()
	if len(evs) != 1 {
		t.Fatalf("want 1 event, got %d", len(evs))
	}
	if evs[0].Count != 5 {
		t.Fatalf("want count 5, got %d", evs[0].Count)
	}
}

func TestMaskingIPsAndHex(t *testing.T) {
	p := NewDefault()
	m := p.Parse("connect 172.30.72.31:33404 failed code 0xdeadbeef")
	if strings.Contains(m.Template, "172.30") || strings.Contains(m.Template, "0xdead") {
		t.Fatalf("masking failed: %q", m.Template)
	}
}

func TestTokenCountPartitioning(t *testing.T) {
	p := NewDefault()
	m1 := p.Parse("alpha beta gamma")
	m2 := p.Parse("alpha beta gamma delta")
	if m1.EventID == m2.EventID {
		t.Fatal("different token counts must never share an event")
	}
}

func TestEmptyMessage(t *testing.T) {
	p := NewDefault()
	m := p.Parse("")
	if m.EventID != 0 {
		t.Fatalf("empty message should parse to event 0, got %d", m.EventID)
	}
	if p.NumEvents() != 1 {
		t.Fatalf("want 1 event, got %d", p.NumEvents())
	}
}

func TestMaxChildrenOverflowRoutesToWildcard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxChildren = 2
	p := New(cfg)
	// Many distinct leading tokens force overflow into the wildcard child;
	// parsing must keep working and stay consistent per message shape.
	seen := make(map[int]bool)
	for _, w := range []string{"aa", "bb", "cc", "dd", "ee"} {
		m := p.Parse(w + " service started ok")
		seen[m.EventID] = true
	}
	if len(seen) == 0 {
		t.Fatal("no events produced")
	}
}

func TestIdempotentReparse(t *testing.T) {
	p := NewDefault()
	first := p.Parse("job 17 finished with status 0")
	for i := 0; i < 10; i++ {
		again := p.Parse("job 17 finished with status 0")
		if again.EventID != first.EventID {
			t.Fatal("re-parsing an identical message must return the same event")
		}
	}
	if p.NumEvents() != 1 {
		t.Fatalf("want 1 event after reparsing, got %d", p.NumEvents())
	}
}

func TestConcurrentParsing(t *testing.T) {
	p := NewDefault()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p.Parse(fmt.Sprintf("worker %d iteration %d done", w, i))
			}
		}(w)
	}
	wg.Wait()
	if p.NumEvents() != 1 {
		t.Fatalf("concurrent identical-shape parses should converge to 1 event, got %d", p.NumEvents())
	}
	if got := p.Events()[0].Count; got != 800 {
		t.Fatalf("want 800 matches, got %d", got)
	}
}

// Property: parsing the same message twice always yields the same event id,
// regardless of what was parsed before it.
func TestParseDeterministicProperty(t *testing.T) {
	f := func(words []string) bool {
		msg := strings.Join(words, " ")
		p := NewDefault()
		a := p.Parse(msg)
		b := p.Parse(msg)
		return a.EventID == b.EventID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of wildcard positions in the template equals the
// number of extracted parameters.
func TestParamCountMatchesWildcards(t *testing.T) {
	p := NewDefault()
	msgs := []string{
		"open file /var/log/app.log size 1024",
		"open file /etc/conf size 77",
		"node n42 went offline at rack 7",
		"node n43 went offline at rack 9",
	}
	for _, msg := range msgs {
		m := p.Parse(msg)
		wilds := strings.Count(m.Template, Wildcard)
		if wilds != len(m.Params) {
			t.Fatalf("template %q has %d wildcards but %d params", m.Template, wilds, len(m.Params))
		}
	}
}

func TestParamsAreRawValues(t *testing.T) {
	p := NewDefault()
	p.Parse("request served from 10.1.2.3:80 in 12 ms")
	m := p.Parse("request served from 10.9.9.9:443 in 777 ms")
	if len(m.Params) < 2 {
		t.Fatalf("params: %v", m.Params)
	}
	found := false
	for _, prm := range m.Params {
		if prm == "10.9.9.9:443" {
			found = true
		}
		if strings.Contains(prm, Wildcard) {
			t.Fatalf("param %q leaked the wildcard instead of the raw value", prm)
		}
	}
	if !found {
		t.Fatalf("raw IP value missing from params: %v", m.Params)
	}
}
