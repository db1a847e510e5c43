package main

import (
	"slices"
	"testing"
)

func TestZipfSequenceDeterministic(t *testing.T) {
	a, b := zipfSequence(7, serveRequests, serveKeyCount), zipfSequence(7, serveRequests, serveKeyCount)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different sequences")
	}
	if slices.Equal(a, zipfSequence(8, serveRequests, serveKeyCount)) {
		t.Fatal("different seeds gave the same sequence")
	}
	count := func(seq []int) []int {
		c := make([]int, serveKeyCount)
		for _, r := range seq {
			if r < 0 || r >= serveKeyCount {
				t.Fatalf("rank %d out of range", r)
			}
			c[r]++
		}
		return c
	}
	ca := count(a)
	if len(a) != serveRequests || !slices.Equal(ca, count(zipfSequence(8, serveRequests, serveKeyCount))) {
		t.Fatal("seeds changed the request mix, not just its order")
	}
	for k := 1; k < serveKeyCount; k++ {
		if ca[k] > ca[k-1] || ca[k] < 1 {
			t.Fatalf("rank %d requested %d times after %d: not a Zipf mix over every key", k, ca[k], ca[k-1])
		}
	}
	if ca[0] <= 2*ca[1] {
		t.Errorf("rank 0 requested %d times, rank 1 %d: not Zipf(1.1)", ca[0], ca[1])
	}
}

func TestServeKeysFixedAndDistinct(t *testing.T) {
	a, b := serveKeys(), serveKeys()
	if len(a) != serveKeyCount {
		t.Fatalf("%d keys, want %d", len(a), serveKeyCount)
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("key %d differs between calls", i)
		}
		if seen[a[i].cacheKey()] {
			t.Fatalf("duplicate key %s", a[i])
		}
		seen[a[i].cacheKey()] = true
	}
}
