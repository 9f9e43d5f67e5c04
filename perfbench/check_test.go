package main

import (
	"strings"
	"testing"
)

func single(k uint16) request { return request{keys: [3]uint16{k}, n: 1} }

func TestCheckOverlapFiresOnPlantedOverlap(t *testing.T) {
	ops := []opRec{
		{grant: 10, relSend: 20, req: single(1)},
		{grant: 20, relSend: 30, req: single(1)}, // starts as the first ends: legal
		{grant: 5, relSend: 50, req: single(2)},
		{grant: 40, relSend: 45, req: request{keys: [3]uint16{3, 2}, n: 2}}, // planted: key 2 still held
	}
	bad := checkOverlap(ops)
	if len(bad) != 1 || !strings.HasPrefix(bad[0], "key 2:") {
		t.Fatalf("violations = %q, want one on key 2", bad)
	}
}

func TestCheckOverlapPassesDisjointHolds(t *testing.T) {
	ops := []opRec{
		{grant: 30, relSend: 40, req: single(1)},
		{grant: 0, relSend: 10, req: single(1)},
		{grant: 10, relSend: 30, req: single(1)},
		{grant: 0, relSend: 100, req: single(2)},
	}
	if bad := checkOverlap(ops); len(bad) != 0 {
		t.Fatalf("violations on disjoint holds: %q", bad)
	}
}

func TestCheckOverlapSkipsLostLeases(t *testing.T) {
	ops := []opRec{
		{grant: 0, relSend: 100, req: single(1), status: opReleaseNotFound},
		{grant: 50, relSend: 60, req: single(1)},
		{start: 55, req: single(1), status: opAcquireFailed},
	}
	if bad := checkOverlap(ops); len(bad) != 0 {
		t.Fatalf("a hold whose release was answered not-found was checked: %q", bad)
	}
	s := clientStats(ops, [2]int64{0, 200})
	if s.attempted != 5 || s.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 5 and 2 (the lost release and the failed acquire)", s.attempted, s.failed)
	}
}

func TestCheckOverlapCountsBeyondTheReportedOnes(t *testing.T) {
	var ops []opRec
	for i := 0; i < 2*maxReported; i++ {
		ops = append(ops, opRec{grant: 0, relSend: 100, req: single(uint16(i))}, opRec{grant: 50, relSend: 60, req: single(uint16(i))})
	}
	bad := checkOverlap(ops)
	if len(bad) != maxReported+1 || !strings.Contains(bad[maxReported], "20 overlaps") {
		t.Fatalf("violations = %q, want %d listed and a total of 20", bad, maxReported)
	}
}
