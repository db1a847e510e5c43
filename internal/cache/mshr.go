package cache

import (
	"math"
	"math/bits"
)

// mshr is one in-flight line: the requesters merged on it and the cycle
// its fill lands (math.MaxInt64 until SetFillTime names it).
type mshr struct {
	key     uint64 // pendKey
	waiters int    // 0 marks an empty slot
	ready   int64
}

// mshrTable is the MSHR table: an open-addressed hash table from pendKey
// to in-flight line, with linear probing over a power-of-two slot array,
// backward-shift deletion (so no tombstones) and doubling once more than
// 7/8 of the slots are full. It is unbounded, and holds most of a run's
// misses (see the package doc), so its bytes per entry matter: a slot is
// 24 bytes and the load stays between 7/16 and 7/8, no worse than a Go
// map[uint64]{waiters, ready}, whose 24-byte slots plus a control byte
// are at most 7/8 full. Growing at a lower load raised peak RSS.
type mshrTable struct {
	slots []mshr // empty, or a power-of-two count
	n     int    // live entries
	shift uint   // 64 - log2(len(slots))
	last  int    // slot of the latest add, which get checks first
}

// minMSHRSlots is the slot count of the first allocation.
const minMSHRSlots = 16

// home is key's preferred slot: Fibonacci hashing, the top bits of key
// times 2^64/phi, which spreads consecutive line numbers evenly.
func (t *mshrTable) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the slot holding key or, with ok false, the empty slot
// an add of key would take (-1 before the first allocation).
func (t *mshrTable) find(key uint64) (int, bool) {
	if len(t.slots) == 0 {
		return -1, false
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch s := &t.slots[i]; {
		case s.waiters == 0:
			return i, false
		case s.key == key:
			return i, true
		}
	}
}

// get returns key's entry, or nil. It tries the latest add before
// probing: the engine names a miss's fill time right after the miss.
func (t *mshrTable) get(key uint64) *mshr {
	if l := t.last; l < len(t.slots) && t.slots[l].waiters != 0 && t.slots[l].key == key {
		return &t.slots[l]
	}
	if i, ok := t.find(key); ok {
		return &t.slots[i]
	}
	return nil
}

// add inserts key, which find reported absent at slot i, as a fresh
// miss: one waiter, fill time unknown.
func (t *mshrTable) add(i int, key uint64) {
	if (t.n+1)*8 > len(t.slots)*7 {
		t.grow()
		i, _ = t.find(key)
	}
	t.slots[i] = mshr{key: key, waiters: 1, ready: math.MaxInt64}
	t.n++
	t.last = i
}

// remove deletes the entry at slot i, shifting back each later entry of
// the probe run that may fill the hole, so every entry stays reachable
// from its home slot without tombstones.
func (t *mshrTable) remove(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].waiters != 0; j = (j + 1) & mask {
		// The entry at j may move to the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = mshr{}
	t.n--
}

// grow doubles the slot array and reinserts every entry.
func (t *mshrTable) grow() {
	old := t.slots
	t.slots = make([]mshr, max(2*len(old), minMSHRSlots))
	t.shift = uint(64 - bits.TrailingZeros(uint(len(t.slots))))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.waiters == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].waiters != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
