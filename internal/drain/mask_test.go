package drain

import (
	"regexp"
	"strings"
	"testing"
)

// oracleMaskers are the regular expressions the byte scan in mask
// replaces, in the order they used to run. They stay here as the oracle
// the scan is held to, byte for byte.
var oracleMaskers = []*regexp.Regexp{
	regexp.MustCompile(`\b\d{1,3}(\.\d{1,3}){3}(:\d+)?\b`), // IPv4, optional port
	regexp.MustCompile(`\b0x[0-9a-fA-F]+\b`),               // hex literals
	regexp.MustCompile(`\b[0-9a-fA-F]{8,}\b`),              // long hex ids
	regexp.MustCompile(`\b\d+\b`),                          // integers
}

func oracleMask(s string) string {
	for _, re := range oracleMaskers {
		s = re.ReplaceAllString(s, Wildcard)
	}
	return s
}

// checkMask holds mask(s) to the regex chain and to the tokenization
// invariant Parse relies on: masking never changes the field count.
func checkMask(t *testing.T, s string) string {
	t.Helper()
	got, want := mask(s), oracleMask(s)
	if got != want {
		t.Fatalf("mask(%q) = %q, regex chain gives %q", s, got, want)
	}
	if n, m := len(strings.Fields(s)), len(strings.Fields(got)); n != m {
		t.Fatalf("mask(%q) = %q changed the field count from %d to %d", s, got, n, m)
	}
	return got
}

func TestMaskMatchesRegexChain(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"no values here", "no values here"},
		{"1.2.3.4", "<*>"},
		{"10.250.19.102:54106", "<*>"},
		{"from /10.0.0.5:8080, retrying", "from /<*>, retrying"},
		{"1.2.3.4567", "<*>.<*>.<*>.<*>"}, // last octet too long
		{"1.2.3.4:80x", "<*>:80x"},        // port runs into a word: address only
		{"1.2.3.4:80:90", "<*>:<*>"},      // port taken, next run an integer
		{"1.2.3.4:", "<*>:"},              // colon without digits
		{"1.2.3.4:_", "<*>:_"},            // colon before a non-digit word
		{"12345.1.2.3.4", "<*>.<*>"},      // first run too long, address starts later
		{"1.2.3.4.5", "<*>.<*>"},          // address ends at the fourth octet
		{"1.2.3", "<*>.<*>.<*>"},          // three octets are three integers
		{"1.2.3.4_", "<*>.<*>.<*>.4_"},    // word byte after the last octet
		{"a1.2.3.4", "a1.<*>.<*>.<*>"},    // not at a word start
		{"1.2.3.4x.5.6.7.8", "<*>.<*>.<*>.4x.<*>"},
		{"0x", "0x"},
		{"0x1f", "<*>"},
		{"0X1f", "0X1f"}, // the literal prefix is case-sensitive
		{"0x1G", "0x1G"},
		{"0xABCdef", "<*>"},
		{"_123", "_123"},
		{"123_", "123_"},
		{"abc123", "abc123"},
		{"deadbeef", "<*>"},
		{"deadbee", "deadbee"},
		{"DEADBEEF00", "<*>"},
		{"deadbeefg", "deadbeefg"},
		{"blk_-1608999687919862906", "blk_-<*>"},
		{"2005-06-03-15.42.50.675872", "<*>-<*>-<*>-<*>.<*>.<*>.<*>"},
		{"<*> 42 <*>", "<*> <*> <*>"},
		{"<*>42<*>", "<*><*><*>"},
		{"\xff42\xfe 10.0.0.1\xc2", "\xff<*>\xfe <*>\xc2"},
		{"truncated \xe6\x97 12", "truncated \xe6\x97 <*>"},
		{"id 42 ok", "id <*> ok"},
		{"a\u008510.0.0.1:80\u0085b", "a\u0085<*>\u0085b"},
		{"id\u00a042\u00a0ok", "id\u00a0<*>\u00a0ok"},
		{"é12 12é", "é<*> <*>é"},
		{"7001 RAS KERNEL INFO 3 ddr errors", "<*> RAS KERNEL INFO <*> ddr errors"},
	}
	for _, c := range cases {
		if got := checkMask(t, c.in); got != c.want {
			t.Errorf("mask(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// mask returns its input unchanged, without copying, when nothing is
// masked — the common case for template-only lines.
func TestMaskNoValueNoAlloc(t *testing.T) {
	s := "service heartbeat ok"
	if n := testing.AllocsPerRun(100, func() { mask(s) }); n != 0 {
		t.Fatalf("mask allocated %.0f times on a value-free line", n)
	}
}

// FuzzMask holds the byte scan to the four regular expressions applied in
// sequence on arbitrary input: invalid UTF-8, Unicode separators, nested
// address shapes, pre-existing wildcards. Its seeds are checked in under
// testdata/fuzz/FuzzMask.
func FuzzMask(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) { checkMask(t, s) })
}
