package router

import (
	"fmt"
	"math/rand"
	"testing"

	"ppamcp/internal/graph"
)

func ringMembers(n int) []string {
	ms := make([]string, n)
	for i := range ms {
		ms[i] = fmt.Sprintf("http://backend-%d:8080", i)
	}
	return ms
}

// TestRingDeterminism pins the property warm-session affinity depends
// on: the ring is a pure function of the member set, so the same key
// maps to the same backend across router restarts and across replicas,
// regardless of configuration order.
func TestRingDeterminism(t *testing.T) {
	members := ringMembers(5)
	shuffled := append([]string(nil), members...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	a := NewRing(members, 64)
	b := NewRing(shuffled, 64) // a "restart" with reordered config
	for i := 0; i < 10000; i++ {
		key := rand.New(rand.NewSource(int64(i))).Uint64()
		ma, _ := a.Lookup(key)
		mb, _ := b.Lookup(key)
		if ma != mb {
			t.Fatalf("key %#x: %s vs %s across restarts", key, ma, mb)
		}
	}
}

// TestRingDistribution sanity-checks that virtual nodes spread load:
// with 4 members and 64 vnodes no member should own a wildly
// disproportionate share of uniformly random keys.
func TestRingDistribution(t *testing.T) {
	members := ringMembers(4)
	r := NewRing(members, 64)
	counts := make(map[string]int)
	rng := rand.New(rand.NewSource(7))
	const keys = 40000
	for i := 0; i < keys; i++ {
		m, ok := r.Lookup(rng.Uint64())
		if !ok {
			t.Fatal("lookup failed on a populated ring")
		}
		counts[m]++
	}
	for _, m := range members {
		share := float64(counts[m]) / keys
		if share < 0.15 || share > 0.35 {
			t.Errorf("%s owns %.1f%% of keys; vnode spread is broken", m, 100*share)
		}
	}
}

// TestRingRebalanceBounds pins the consistent-hashing contract: removing
// one member moves ONLY the keys that member owned — every other key
// keeps its backend (and its warm sessions) through the membership
// change. Adding the member back restores the original placement
// exactly.
func TestRingRebalanceBounds(t *testing.T) {
	members := ringMembers(5)
	full := NewRing(members, 64)
	evicted := members[2]
	reduced := NewRing(append(append([]string(nil), members[:2]...), members[3:]...), 64)

	rng := rand.New(rand.NewSource(3))
	moved, owned := 0, 0
	for i := 0; i < 20000; i++ {
		key := rng.Uint64()
		before, _ := full.Lookup(key)
		after, _ := reduced.Lookup(key)
		if before == evicted {
			owned++
			if after == evicted {
				t.Fatalf("key %#x still maps to the evicted member", key)
			}
			continue
		}
		if before != after {
			moved++
			t.Errorf("key %#x moved %s -> %s though its owner stayed in the ring", key, before, after)
			if moved > 5 {
				t.FailNow()
			}
		}
	}
	if owned == 0 {
		t.Fatal("the evicted member owned no keys; test is vacuous")
	}

	// Re-admission restores the exact original placement (determinism
	// again, from the other side).
	restored := NewRing(members, 64)
	for i := 0; i < 5000; i++ {
		key := rng.Uint64()
		a, _ := full.Lookup(key)
		b, _ := restored.Lookup(key)
		if a != b {
			t.Fatalf("key %#x: placement not restored after re-admission", key)
		}
	}
}

// TestRingSequence pins the failover order: it starts at the key's
// owner, lists distinct members, and never exceeds the member count.
func TestRingSequence(t *testing.T) {
	members := ringMembers(4)
	r := NewRing(members, 64)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		key := rng.Uint64()
		owner, _ := r.Lookup(key)
		seq := r.Sequence(key, 3)
		if len(seq) != 3 {
			t.Fatalf("sequence length %d, want 3", len(seq))
		}
		if seq[0] != owner {
			t.Fatalf("sequence starts at %s, owner is %s", seq[0], owner)
		}
		seen := make(map[string]bool)
		for _, m := range seq {
			if seen[m] {
				t.Fatalf("duplicate member %s in failover sequence", m)
			}
			seen[m] = true
		}
	}
	if got := r.Sequence(42, 0); len(got) != len(members) {
		t.Errorf("max<=0 sequence = %d members, want all %d", len(got), len(members))
	}
	empty := NewRing(nil, 8)
	if _, ok := empty.Lookup(1); ok {
		t.Error("empty ring claims an owner")
	}
	if got := empty.Sequence(1, 2); got != nil {
		t.Errorf("empty ring sequence = %v", got)
	}
}

// TestFingerprintPlacementSpread places 512 random n=64 graphs by
// graph.Fingerprint on 2- and 3-backend rings (64 vnodes), and then 512
// variants of one graph that each differ from it in a single entry. No
// backend may own much more of either set than its share of uniformly
// random keys, the share the ring's vnodes give it.
func TestFingerprintPlacementSpread(t *testing.T) {
	const graphs, h = 512, 8
	random := make([]*graph.Graph, graphs)
	for i := range random {
		random[i] = graph.GenRandomConnected(64, 0.3, 9, int64(i))
	}
	base := random[0]
	variants := make([]*graph.Graph, graphs)
	for i := range variants {
		v := base.Clone()
		k := i * 8 // spread over the matrix's rows and columns
		if v.W[k] == graph.NoEdge {
			v.W[k] = 5
		} else {
			v.W[k] = graph.NoEdge
		}
		variants[i] = v
	}
	for _, members := range []int{2, 3} {
		r := NewRing(ringMembers(members), 64)
		keyShare := map[string]float64{}
		rng := rand.New(rand.NewSource(1))
		const keys = 100000
		for i := 0; i < keys; i++ {
			m, _ := r.Lookup(rng.Uint64())
			keyShare[m] += 1.0 / keys
		}
		for _, set := range []struct {
			name string
			gs   []*graph.Graph
		}{{"random graphs", random}, {"single-entry variants", variants}} {
			count := map[string]int{}
			for _, g := range set.gs {
				m, _ := r.Lookup(graph.Fingerprint(g, h))
				count[m]++
			}
			for _, m := range r.Members() {
				// 0.1 is about 4.5 standard deviations of a share
				// estimated from 512 draws.
				share := float64(count[m]) / graphs
				if share > keyShare[m]+0.1 {
					t.Errorf("%d backends, %s: %s owns %.1f%% of the graphs, %.1f%% of random keys",
						members, set.name, m, 100*share, 100*keyShare[m])
				}
			}
		}
	}
}
