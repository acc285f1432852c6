package drain_test

import (
	"strconv"
	"testing"

	"logsynergy/internal/drain"
	"logsynergy/internal/logdata"
)

// parseSink keeps the benchmarked call's result live.
var parseSink drain.Match

// BenchmarkDrainParse prices the parse layer on the served shape: a
// default parser, warmed on the same stream, parsing keyed BGL lines
// ("<key> <message>", as the sharded runtime receives them). Each op is
// one Parse call.
func BenchmarkDrainParse(b *testing.B) {
	const n = 4096
	g := logdata.NewGenerator(logdata.BGL(), 1)
	lines := make([]string, n)
	for i := range lines {
		lines[i] = strconv.Itoa(7001+i%64) + " " + g.Next().Message
	}
	p := drain.NewDefault()
	for _, l := range lines {
		p.Parse(l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parseSink = p.Parse(lines[i%n])
	}
}
