// Package drain implements the Drain online log parsing algorithm
// (He, Zhu, Zheng, Lyu: "Drain: An Online Log Parsing Approach with Fixed
// Depth Tree", ICWS 2017), the parser LogSynergy's pre-processing phase
// uses to turn raw log messages into structured log events and parameters.
//
// Drain routes each tokenized message through a fixed-depth prefix tree:
// the first level branches on token count, the next levels branch on the
// leading tokens (tokens containing digits collapse to a wildcard), and
// each leaf holds a list of log groups. A message joins the group whose
// template it is most similar to, or starts a new group; template positions
// that disagree become the <*> wildcard parameter marker.
//
// Before tokenizing, the parser masks four value shapes with <*>, in one
// left-to-right byte scan (see mask):
//
//   - IPv4 addresses with an optional :port, such as 10.0.0.5:8080;
//   - hex literals, such as 0x1f;
//   - long hex ids of eight or more hex digits, such as deadbeef;
//   - integers, such as 42.
//
// The scan reproduces, byte for byte, the regular expressions
// \b\d{1,3}(\.\d{1,3}){3}(:\d+)?\b, \b0x[0-9a-fA-F]+\b,
// \b[0-9a-fA-F]{8,}\b and \b\d+\b applied in that order, with RE2's
// ASCII word boundary; the package tests hold it to those expressions.
package drain

import (
	"strings"
	"sync"
)

// Wildcard is the template placeholder for a parameter position.
const Wildcard = "<*>"

// Config controls tree shape and matching thresholds. Value masking is
// built in (see the package comment) and is not configurable: every
// deployment masks the same four shapes, so templates and saved states
// stay comparable across parsers.
type Config struct {
	// Depth is the total tree depth including the root and leaf levels.
	// Depth-2 token prefixes are used for routing. Default 4.
	Depth int
	// SimThreshold is the minimum token-level similarity for a message to
	// join an existing group. Default 0.4.
	SimThreshold float64
	// MaxChildren caps the branching factor of internal nodes; overflow
	// tokens route through a shared wildcard child. Default 100.
	MaxChildren int
}

// DefaultConfig returns the configuration used in the Drain paper.
func DefaultConfig() Config {
	return Config{Depth: 4, SimThreshold: 0.4, MaxChildren: 100}
}

// Event is one discovered log template.
type Event struct {
	// ID is a stable identifier assigned in discovery order, starting at 0.
	ID int
	// Template is the event text with parameters replaced by <*>.
	Template string
	// Example is the first raw (masked) message that created the group.
	Example string
	// Count is how many messages matched this event.
	Count int

	tokens []string
}

// Match is the parse result for a single message.
type Match struct {
	// EventID identifies the matched template.
	EventID int
	// Template is the (possibly updated) template text.
	Template string
	// Params holds the concrete values at wildcard positions, in order.
	Params []string
}

// Parser is a thread-safe online Drain parser.
type Parser struct {
	cfg Config

	mu     sync.Mutex
	root   map[int]*node // keyed by token count
	events []*Event
}

// node is an internal routing node or a leaf holding candidate groups.
type node struct {
	children map[string]*node
	groups   []*Event // non-nil only at leaves
}

// New creates a parser with the given configuration, applying defaults for
// zero-valued fields.
func New(cfg Config) *Parser {
	if cfg.Depth <= 2 {
		cfg.Depth = 4
	}
	if cfg.SimThreshold <= 0 {
		cfg.SimThreshold = 0.4
	}
	if cfg.MaxChildren <= 0 {
		cfg.MaxChildren = 100
	}
	return &Parser{cfg: cfg, root: make(map[int]*node)}
}

// NewDefault creates a parser with DefaultConfig.
func NewDefault() *Parser { return New(DefaultConfig()) }

// Parse routes one raw log message through the tree, creating or updating
// a template, and returns the matched event with extracted parameters.
func (p *Parser) Parse(message string) Match {
	masked := mask(message)
	tokens := strings.Fields(masked)
	// Masking replaces whole word runs (and the dots and colons inside an
	// address) with <*>, never whitespace, so the raw message tokenizes 1:1
	// with the masked one; parameters are extracted from the raw tokens to
	// preserve the concrete values.
	rawTokens := tokens
	if masked != message {
		rawTokens = strings.Fields(message)
	}
	if len(tokens) == 0 {
		tokens = []string{""}
		rawTokens = tokens
	}

	p.mu.Lock()
	defer p.mu.Unlock()

	leaf := p.route(tokens)
	best, bestSim := p.bestGroup(leaf, tokens)
	if best == nil || bestSim < p.cfg.SimThreshold {
		ev := &Event{
			ID:       len(p.events),
			Template: strings.Join(tokens, " "),
			Example:  masked,
			Count:    1,
			tokens:   append([]string(nil), tokens...),
		}
		p.events = append(p.events, ev)
		leaf.groups = append(leaf.groups, ev)
		return Match{EventID: ev.ID, Template: ev.Template, Params: extractParams(ev.tokens, rawTokens)}
	}

	// Merge: positions that disagree become wildcards.
	changed := false
	for i, tok := range tokens {
		if best.tokens[i] != tok && best.tokens[i] != Wildcard {
			best.tokens[i] = Wildcard
			changed = true
		}
	}
	if changed {
		best.Template = strings.Join(best.tokens, " ")
	}
	best.Count++
	return Match{EventID: best.ID, Template: best.Template, Params: extractParams(best.tokens, rawTokens)}
}

// mask replaces every IPv4 address, hex literal, long hex id and integer
// in message with the wildcard, returning message itself when nothing is
// masked. Each of the four shapes covers whole maximal ASCII word runs
// ([0-9A-Za-z_]+; bytes >= 0x80 are non-word, as for RE2's \b), and the
// wildcard holds no word byte, so a replacement never moves another run's
// boundaries and one pass over the runs decides every mask: at each run
// start the address is tried first (as the first expression would), then
// the run alone is tested against the other three shapes.
func mask(message string) string {
	var out strings.Builder // unallocated until the first replacement
	copied := 0             // message[:copied] is already in out
	for i := 0; i < len(message); {
		if !isWord(message[i]) {
			i++
			continue
		}
		end := i + 1
		for end < len(message) && isWord(message[end]) {
			end++
		}
		next := end
		if ip := ipv4End(message, i); ip > 0 {
			next = ip
		} else if !isValueWord(message[i:end]) {
			i = end
			continue
		}
		if out.Cap() == 0 {
			out.Grow(len(message) + 4*len(Wildcard))
		}
		out.WriteString(message[copied:i])
		out.WriteString(Wildcard)
		copied, i = next, next
	}
	if out.Cap() == 0 {
		return message
	}
	out.WriteString(message[copied:])
	return out.String()
}

// ipv4End returns the end of the IPv4 address that starts at word start
// i, or -1 if none does. Octets are 1-3 digit runs; the first three must
// be followed by '.', the last by a non-word byte or the end. A ":port"
// is included when its digits are followed by a non-word byte or the end;
// otherwise the address ends at the last octet.
func ipv4End(s string, i int) int {
	for octet := 0; ; octet++ {
		end := digitsEnd(s, i)
		if n := end - i; n < 1 || n > 3 {
			return -1
		}
		if octet < 3 {
			if end == len(s) || s[end] != '.' {
				return -1
			}
			i = end + 1
			continue
		}
		if end < len(s) && s[end] == ':' {
			if port := digitsEnd(s, end+1); port > end+1 && (port == len(s) || !isWord(s[port])) {
				return port
			}
		}
		if end < len(s) && isWord(s[end]) {
			return -1
		}
		return end
	}
}

// digitsEnd returns the end of the run of ASCII digits starting at i.
func digitsEnd(s string, i int) int {
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}

// isValueWord reports whether a whole word run is a hex literal (0x then
// hex digits), a long hex id (eight or more hex digits) or an integer.
func isValueWord(w string) bool {
	if len(w) > 2 && w[0] == '0' && w[1] == 'x' && all(w[2:], isHex) {
		return true
	}
	return all(w, isDigit) || len(w) >= 8 && all(w, isHex)
}

// all reports whether every byte of s satisfies f.
func all(s string, f func(byte) bool) bool {
	for i := 0; i < len(s); i++ {
		if !f(s[i]) {
			return false
		}
	}
	return true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// isWord reports whether c is an ASCII word byte, [0-9A-Za-z_].
func isWord(c byte) bool { return isHex(c) || 'g' <= c && c <= 'z' || 'G' <= c && c <= 'Z' || c == '_' }

// route walks (and lazily builds) the internal levels, returning the leaf.
func (p *Parser) route(tokens []string) *node {
	n, ok := p.root[len(tokens)]
	if !ok {
		n = &node{}
		p.root[len(tokens)] = n
	}
	prefixLevels := p.cfg.Depth - 2
	for d := 0; d < prefixLevels; d++ {
		key := Wildcard
		if d < len(tokens) {
			key = routingKey(tokens[d])
		}
		if n.children == nil {
			n.children = make(map[string]*node)
		}
		child, ok := n.children[key]
		if !ok {
			if len(n.children) >= p.cfg.MaxChildren {
				key = Wildcard
				child, ok = n.children[key]
			}
			if !ok {
				child = &node{}
				n.children[key] = child
			}
		}
		n = child
	}
	return n
}

// routingKey collapses digit-bearing tokens to the wildcard so variable
// values do not explode the tree, per the Drain paper.
func routingKey(token string) string {
	if token == Wildcard || strings.ContainsAny(token, "0123456789") {
		return Wildcard
	}
	return token
}

// bestGroup returns the most similar group at the leaf and its similarity.
func (p *Parser) bestGroup(leaf *node, tokens []string) (*Event, float64) {
	var best *Event
	bestSim := -1.0
	for _, ev := range leaf.groups {
		sim := similarity(ev.tokens, tokens)
		if sim > bestSim {
			best, bestSim = ev, sim
		}
	}
	return best, bestSim
}

// similarity is the fraction of positions where the template token equals
// the message token (Drain's simSeq definition). A wildcard template
// position counts as a match only against a masked (wildcard) message
// token: masked tokens can never be anything but parameters, and without
// this rule a fully-masked message scores 0 against its own template and
// mints a fresh group on every parse — unbounded growth on numeric-heavy
// streams (found by FuzzParse).
func similarity(template, tokens []string) float64 {
	if len(template) != len(tokens) {
		return 0
	}
	same := 0
	for i := range template {
		if template[i] == tokens[i] {
			same++
		}
	}
	return float64(same) / float64(len(tokens))
}

// extractParams returns the message tokens at wildcard template positions
// (nil when the template has none), sized in one allocation.
func extractParams(template, tokens []string) []string {
	n := 0
	for _, t := range template {
		if t == Wildcard {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	params := make([]string, 0, n)
	for i, t := range template {
		if t == Wildcard {
			params = append(params, tokens[i])
		}
	}
	return params
}

// Events returns a snapshot of every discovered event, in ID order.
func (p *Parser) Events() []*Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Event, len(p.events))
	for i, ev := range p.events {
		cp := *ev
		cp.tokens = nil
		out[i] = &cp
	}
	return out
}

// NumEvents returns how many distinct templates have been discovered.
func (p *Parser) NumEvents() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.events)
}
