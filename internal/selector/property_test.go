package selector

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// randomPool builds a pool with n backends (weights in [1,4] for the
// weighted policy, else 1) and a random subset marked down such that at
// least one backend stays healthy.
func randomPool(rng *rand.Rand, policy Policy, n int) (*Pool, []string, map[string]bool) {
	opts := DefaultOptions(policy)
	p := New(opts)
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("backend-%02d", i)
		w := 1
		if policy == WeightedRoundRobin {
			w = 1 + rng.Intn(4)
		}
		if err := p.Add(name, w); err != nil {
			panic(err)
		}
		names = append(names, name)
	}
	down := map[string]bool{}
	for _, name := range names {
		if rng.Intn(3) == 0 {
			down[name] = true
		}
	}
	if len(down) == len(names) {
		delete(down, names[rng.Intn(len(names))])
	}
	p.SyncSuspicions(fakeSuspector(down))
	return p, names, down
}

// Property (a): no policy ever picks a backend marked down while a
// healthy one exists. (The pools use a frozen clock, so probe windows
// never open.)
func TestPropertyNeverPicksDownBackend(t *testing.T) {
	for _, policy := range []Policy{RoundRobin, WeightedRoundRobin, LeastPending, Balanced, Rendezvous} {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p, _, down := randomPool(rng, policy, 2+rng.Intn(8))
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("key-%d", rng.Intn(50))
				name, ok := p.Pick(key)
				if !ok {
					t.Fatalf("%v seed %d: pick failed", policy, seed)
				}
				if down[name] {
					t.Fatalf("%v seed %d: picked down backend %s with healthy ones available", policy, seed, name)
				}
				// Random acquire/release churn so in-flight state varies.
				if rng.Intn(2) == 0 {
					p.Acquire(name)
				} else {
					p.Release(name, rng.Float64(), rng.Intn(4) == 0)
				}
			}
		}
	}
}

// Property (b): round-robin and weighted round-robin hit the exact
// round-robin distribution — over k*sum(weights) picks each healthy
// backend is picked exactly k*weight times.
func TestPropertyExactRoundRobinDistribution(t *testing.T) {
	for _, policy := range []Policy{RoundRobin, WeightedRoundRobin} {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			opts := DefaultOptions(policy)
			p := New(opts)
			n := 2 + rng.Intn(7)
			weights := map[string]int{}
			total := 0
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("b%d", i)
				w := 1
				if policy == WeightedRoundRobin {
					w = 1 + rng.Intn(4)
				}
				if err := p.Add(name, w); err != nil {
					t.Fatal(err)
				}
				weights[name] = w
				total += w
			}
			rounds := 1 + rng.Intn(5)
			counts := map[string]int{}
			for i := 0; i < rounds*total; i++ {
				name, ok := p.Pick("")
				if !ok {
					t.Fatal("pick failed")
				}
				counts[name]++
			}
			for name, w := range weights {
				if counts[name] != rounds*w {
					t.Fatalf("%v seed %d: backend %s picked %d times, want %d (weights %v)",
						policy, seed, name, counts[name], rounds*w, weights)
				}
			}
		}
	}
}

// Property (c): under the balanced scorer with in-flight feedback
// (every pick acquires, nothing releases), pick frequency is monotone
// non-increasing in the backend's base score: a backend with a worse
// failure/latency history is never picked more often than a healthier
// one.
func TestPropertyBalancedPickFrequencyMonotone(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		opts := DefaultOptions(Balanced)
		p := New(opts)
		n := 2 + rng.Intn(7)
		names := make([]string, 0, n)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("b%d", i)
			if err := p.Add(name, 1); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
		// Seed each backend with a random failure/latency history.
		for _, name := range names {
			for k := rng.Intn(6); k > 0; k-- {
				p.Acquire(name)
				p.Release(name, rng.Float64(), rng.Intn(2) == 0)
			}
		}
		base := map[string]float64{}
		for _, st := range p.Snapshot() {
			base[st.Name] = st.Score
		}
		counts := map[string]int{}
		for i := 0; i < 300; i++ {
			name, ok := p.Pick("")
			if !ok {
				t.Fatal("pick failed")
			}
			counts[name]++
			p.Acquire(name)
		}
		sorted := append([]string(nil), names...)
		sort.Slice(sorted, func(i, j int) bool { return base[sorted[i]] < base[sorted[j]] })
		for i := 1; i < len(sorted); i++ {
			lo, hi := sorted[i-1], sorted[i]
			if base[lo] < base[hi] && counts[hi] > counts[lo] {
				t.Fatalf("seed %d: backend %s (score %.2f) picked %d times, more than %s (score %.2f, %d picks)",
					seed, hi, base[hi], counts[hi], lo, base[lo], counts[lo])
			}
		}
	}
}

// Property (d): removing one backend moves only the keys that were
// mapped to it — every other key keeps its assignment, and the moved
// fraction is ~1/n of the keyspace.
func TestPropertyRendezvousMinimalDisruption(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		n := 3 + rng.Intn(8)
		candidates := make([]string, 0, n)
		for i := 0; i < n; i++ {
			candidates = append(candidates, fmt.Sprintf("node-%02d", i))
		}
		const keys = 2000
		before := map[string]string{}
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("key-%05d", k)
			pick, ok := RendezvousPick(key, candidates)
			if !ok {
				t.Fatal("pick failed")
			}
			before[key] = pick
		}
		removed := candidates[rng.Intn(n)]
		survivors := make([]string, 0, n-1)
		for _, c := range candidates {
			if c != removed {
				survivors = append(survivors, c)
			}
		}
		moved := 0
		for key, prev := range before {
			pick, ok := RendezvousPick(key, survivors)
			if !ok {
				t.Fatal("pick failed")
			}
			if prev == removed {
				moved++
				continue
			}
			if pick != prev {
				t.Fatalf("seed %d: key %s moved from %s to %s though %s was removed",
					seed, key, prev, pick, removed)
			}
		}
		// The moved fraction is the removed backend's keyspace share:
		// ~1/n with generous tolerance for hash variance.
		frac := float64(moved) / keys
		lo, hi := 0.2/float64(n), 3.0/float64(n)
		if frac < lo || frac > hi {
			t.Fatalf("seed %d: moved fraction %.3f outside [%.3f, %.3f] (n=%d)", seed, frac, lo, hi, n)
		}
	}
}

// Rendezvous picks are stable under candidate permutation and identical
// inputs, and every pick is a member of the candidate set.
func TestPropertyRendezvousStableAndMember(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(9)
		candidates := make([]string, 0, n)
		for i := 0; i < n; i++ {
			candidates = append(candidates, fmt.Sprintf("n%d", rng.Intn(12)))
		}
		key := fmt.Sprintf("k%d", rng.Intn(1000))
		a, ok := RendezvousPick(key, candidates)
		if !ok {
			t.Fatal("pick failed")
		}
		member := false
		for _, c := range candidates {
			if c == a {
				member = true
			}
		}
		if !member {
			t.Fatalf("pick %q not in candidates %v", a, candidates)
		}
		shuffled := append([]string(nil), candidates...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if b, _ := RendezvousPick(key, shuffled); b != a {
			t.Fatalf("pick unstable under permutation: %q vs %q (candidates %v)", a, b, candidates)
		}
		if c, _ := RendezvousPick(key, candidates); c != a {
			t.Fatalf("pick unstable for identical input: %q vs %q", a, c)
		}
	}
}
