package rubis

import (
	"fmt"
	"math/rand"
)

// Chain is a Markov session model over the 26 interactions: the original
// RUBiS drives each emulated client through a transition table rather
// than sampling interactions independently. The default emulator mode
// uses the calibrated stationary weights directly (which preserves the
// per-interaction request rates exactly); this chain mode adds session
// structure — authentication pages precede their store pages, browsing
// drills down before viewing items — for workloads where request
// *ordering* matters.
type Chain struct {
	transitions map[string][]Transition
	start       string
}

// Transition is one weighted edge of the session graph.
type Transition struct {
	To string
	P  float64
}

// NewChain builds a chain with the given start state.
func NewChain(start string) *Chain {
	return &Chain{transitions: make(map[string][]Transition), start: start}
}

// Start returns the session entry state.
func (c *Chain) Start() string { return c.start }

// Set defines the outgoing distribution of one state.
func (c *Chain) Set(from string, ts ...Transition) {
	c.transitions[from] = ts
}

// Next samples the successor of state from.
func (c *Chain) Next(from string, rng *rand.Rand) string {
	ts := c.transitions[from]
	if len(ts) == 0 {
		return c.start
	}
	x := rng.Float64()
	acc := 0.0
	for _, t := range ts {
		acc += t.P
		if x < acc {
			return t.To
		}
	}
	return ts[len(ts)-1].To
}

// Validate checks the chain against an interaction set: every state and
// every target must be a known interaction, every row must sum to ~1,
// and every interaction must be reachable from the start state.
func (c *Chain) Validate(interactions []Interaction) error {
	known := map[string]bool{}
	for _, it := range interactions {
		known[it.Name] = true
	}
	if !known[c.start] {
		return fmt.Errorf("rubis: chain start %q is not an interaction", c.start)
	}
	for from, ts := range c.transitions {
		if !known[from] {
			return fmt.Errorf("rubis: chain state %q is not an interaction", from)
		}
		sum := 0.0
		for _, t := range ts {
			if !known[t.To] {
				return fmt.Errorf("rubis: transition %s -> %q targets an unknown interaction", from, t.To)
			}
			if t.P <= 0 {
				return fmt.Errorf("rubis: transition %s -> %s has non-positive probability", from, t.To)
			}
			sum += t.P
		}
		if sum < 0.999 || sum > 1.001 {
			return fmt.Errorf("rubis: transitions out of %s sum to %v", from, sum)
		}
	}
	// Reachability from the start state.
	reached := map[string]bool{c.start: true}
	frontier := []string{c.start}
	for len(frontier) > 0 {
		s := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, t := range c.transitions[s] {
			if !reached[t.To] {
				reached[t.To] = true
				frontier = append(frontier, t.To)
			}
		}
	}
	for name := range known {
		if !reached[name] {
			return fmt.Errorf("rubis: interaction %q unreachable from %s", name, c.start)
		}
	}
	// Every interaction needs an outgoing row (sessions never get stuck).
	for name := range known {
		if len(c.transitions[name]) == 0 {
			return fmt.Errorf("rubis: interaction %q has no outgoing transitions", name)
		}
	}
	return nil
}

// DefaultTransitions is a bidding-mix session graph: browsing drills down
// into item views; bids, buy-nows and comments flow through their
// authentication pages; selling flows through category selection and the
// item form. It is shaped to keep the empirical interaction frequencies
// in the same regime as the calibrated stationary weights (verified by
// the calibration tests).
func DefaultTransitions() *Chain {
	c := NewChain("Home")
	c.Set("Home",
		Transition{"Browse", 0.42},
		Transition{"SearchItemsInCategory", 0.22},
		Transition{"ViewItem", 0.20},
		Transition{"AboutMe", 0.06},
		Transition{"Sell", 0.04},
		Transition{"Register", 0.03},
		Transition{"BrowseRegions", 0.03})
	c.Set("Browse",
		Transition{"BrowseCategories", 0.60},
		Transition{"BrowseRegions", 0.20},
		Transition{"Home", 0.20})
	c.Set("BrowseCategories",
		Transition{"SearchItemsInCategory", 0.85},
		Transition{"Browse", 0.15})
	c.Set("SearchItemsInCategory",
		Transition{"ViewItem", 0.45},
		Transition{"SearchItemsInCategory", 0.30},
		Transition{"BrowseCategories", 0.10},
		Transition{"Home", 0.15})
	c.Set("BrowseRegions",
		Transition{"BrowseCategoriesInRegion", 0.85},
		Transition{"Home", 0.15})
	c.Set("BrowseCategoriesInRegion",
		Transition{"SearchItemsInRegion", 0.85},
		Transition{"Browse", 0.15})
	c.Set("SearchItemsInRegion",
		Transition{"ViewItem", 0.45},
		Transition{"SearchItemsInRegion", 0.30},
		Transition{"BrowseRegions", 0.10},
		Transition{"Home", 0.15})
	c.Set("ViewItem",
		Transition{"PutBidAuth", 0.22},
		Transition{"ViewBidHistory", 0.12},
		Transition{"ViewUserInfo", 0.10},
		Transition{"BuyNowAuth", 0.06},
		Transition{"SearchItemsInCategory", 0.30},
		Transition{"Home", 0.20})
	c.Set("ViewUserInfo",
		Transition{"PutCommentAuth", 0.30},
		Transition{"ViewItem", 0.35},
		Transition{"SearchItemsInCategory", 0.35})
	c.Set("ViewBidHistory",
		Transition{"PutBidAuth", 0.35},
		Transition{"ViewItem", 0.35},
		Transition{"SearchItemsInCategory", 0.30})
	c.Set("PutBidAuth", Transition{"PutBid", 1.0})
	c.Set("PutBid",
		Transition{"StoreBid", 0.85},
		Transition{"ViewItem", 0.15})
	c.Set("StoreBid",
		Transition{"SearchItemsInCategory", 0.45},
		Transition{"ViewItem", 0.25},
		Transition{"Home", 0.30})
	c.Set("BuyNowAuth", Transition{"BuyNow", 1.0})
	c.Set("BuyNow",
		Transition{"StoreBuyNow", 0.85},
		Transition{"Home", 0.15})
	c.Set("StoreBuyNow",
		Transition{"Home", 0.50},
		Transition{"SearchItemsInCategory", 0.50})
	c.Set("PutCommentAuth", Transition{"PutComment", 1.0})
	c.Set("PutComment",
		Transition{"StoreComment", 0.90},
		Transition{"Home", 0.10})
	c.Set("StoreComment",
		Transition{"Home", 0.50},
		Transition{"SearchItemsInCategory", 0.50})
	c.Set("Sell", Transition{"SelectCategoryToSellItem", 1.0})
	c.Set("SelectCategoryToSellItem", Transition{"SellItemForm", 1.0})
	c.Set("SellItemForm",
		Transition{"RegisterItem", 0.85},
		Transition{"Home", 0.15})
	c.Set("RegisterItem",
		Transition{"Home", 0.60},
		Transition{"Sell", 0.15},
		Transition{"SearchItemsInCategory", 0.25})
	c.Set("Register", Transition{"RegisterUser", 1.0})
	c.Set("RegisterUser",
		Transition{"Home", 0.55},
		Transition{"Browse", 0.45})
	c.Set("AboutMe",
		Transition{"Home", 0.45},
		Transition{"ViewItem", 0.30},
		Transition{"SearchItemsInCategory", 0.25})
	return c
}

// Stationary estimates the chain's stationary distribution empirically
// over n steps.
func (c *Chain) Stationary(seed int64, n int) map[string]float64 {
	rng := rand.New(rand.NewSource(seed))
	counts := map[string]int{}
	state := c.start
	for i := 0; i < n; i++ {
		state = c.Next(state, rng)
		counts[state]++
	}
	out := make(map[string]float64, len(counts))
	for s, k := range counts {
		out[s] = float64(k) / float64(n)
	}
	return out
}
