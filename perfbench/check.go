package main

import (
	"fmt"
	"sort"
)

// maxReported caps how many violations of one kind are listed.
const maxReported = 10

// checkOverlap checks mutual exclusion as the clients saw it: per key,
// no two holds, each from the grant's arrival to the release's send,
// may overlap. Holds whose release failed or was answered not-found
// are left out; they are counted as failed operations instead.
func checkOverlap(ops []opRec) []string {
	type hold struct {
		from, to int64
		op       int
	}
	byKey := make(map[uint16][]hold)
	for i, r := range ops {
		if r.status != opOK {
			continue
		}
		for _, k := range r.req.keys[:r.req.n] {
			byKey[k] = append(byKey[k], hold{r.grant, r.relSend, i})
		}
	}
	keys := make([]int, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	var bad []string
	total := 0
	for _, k := range keys {
		hs := byKey[uint16(k)]
		sort.Slice(hs, func(i, j int) bool { return hs[i].from < hs[j].from })
		prev := hs[0]
		for _, h := range hs[1:] {
			if h.from < prev.to {
				total++
				if len(bad) < maxReported {
					bad = append(bad, fmt.Sprintf("key %d: op %d holds [%d,%d) while op %d holds [%d,%d)", k, h.op, h.from, h.to, prev.op, prev.from, prev.to))
				}
			}
			if h.to > prev.to {
				prev = h
			}
		}
	}
	if total > len(bad) {
		bad = append(bad, fmt.Sprintf("... %d overlaps in all", total))
	}
	return bad
}
