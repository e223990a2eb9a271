// Fixture for the maprange check: positive cases leak map order into a
// slice or writer; negative cases aggregate, stay loop-local, or sort
// before use.
package m

import (
	"fmt"
	"io"
	"sort"
)

func unsortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m { // want `appends to "keys" in map order`
		keys = append(keys, k)
	}
	return keys
}

func sortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writerInLoop(w io.Writer, m map[string]int) {
	for k, v := range m { // want `writes to an io\.Writer in map order`
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

type sink struct{}

func (sink) Write(p []byte) (int, error) { return len(p), nil }

func methodWrite(s sink, m map[string]int) {
	for k := range m { // want `writes to an io\.Writer in map order`
		s.Write([]byte(k))
	}
}

func aggregate(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func intoAnotherMap(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

func loopLocalScratch(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var tmp []int
		tmp = append(tmp, vs...)
		n += len(tmp)
	}
	return n
}

type rec struct {
	k string
	v int
}

func sortedStructs(m map[string]int) []rec {
	var out []rec
	for k, v := range m {
		out = append(out, rec{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

type collector struct{ keys []string }

func (c *collector) sortedField(m map[string]int) {
	for k := range m {
		c.keys = append(c.keys, k)
	}
	sort.Strings(c.keys)
}

type badCollector struct{ keys []string }

func (c *badCollector) unsortedField(m map[string]int) {
	for k := range m { // want `appends to "keys" in map order`
		c.keys = append(c.keys, k)
	}
}

func allowed(m map[string]int) []string {
	var keys []string
	//srclint:allow maprange stable enough for debug output
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
