package rubis

import (
	"fmt"
	"math/rand"

	"jade/internal/legacy"
	"jade/internal/sqlengine"
)

// GenContext carries what an interaction needs to build its SQL: the
// dataset bounds, a deterministic random source, and the shared ID
// counters that keep INSERTed primary keys unique across all emulated
// clients (so broadcast/replayed writes are idempotent in effect).
type GenContext struct {
	DS       Dataset
	RNG      *rand.Rand
	Counters *Counters
}

// Counters allocates unique IDs for write interactions.
type Counters struct {
	nextUser, nextItem, nextBid, nextComment, nextBuyNow int
}

// NewCounters returns counters starting above the seeded dataset's IDs.
func NewCounters(d Dataset) *Counters {
	return &Counters{
		nextUser:    d.Users,
		nextItem:    d.Items,
		nextBid:     d.Items * d.BidsPerItem,
		nextComment: d.Users * d.CommentsPerUser,
		nextBuyNow:  0,
	}
}

// Interaction is one of the 26 RUBiS web interactions, with its CPU cost
// at each tier and its SQL generator.
type Interaction struct {
	// Name is the RUBiS servlet name.
	Name string
	// Weight is the interaction's stationary probability in the mix.
	// (RUBiS defines a transition matrix; we use its stationary
	// distribution, which preserves the per-interaction request rates
	// that drive resource consumption.)
	Weight float64
	// Write marks read-write interactions.
	Write bool
	// WebCost and AppCost are CPU-seconds at the web and application
	// tiers.
	WebCost, AppCost float64
	// Queries builds the interaction's SQL (empty for pure-HTML pages).
	Queries func(g *GenContext) []legacy.Query
}

// q is shorthand for a costed query.
func q(cost float64, format string, args ...any) legacy.Query {
	return legacy.Query{SQL: fmt.Sprintf(format, args...), Cost: cost}
}

func none(*GenContext) []legacy.Query { return nil }

// webCost is the flat web-tier CPU cost per interaction.
const webCost = 0.002

// Interactions returns the 26 interactions with the bidding-mix weights
// (~12.5% read-write interactions, matching RUBiS's default bidding mix).
func Interactions() []Interaction {
	return []Interaction{
		{Name: "Home", Weight: 0.08, WebCost: webCost, AppCost: 0.008, Queries: none},
		{Name: "Browse", Weight: 0.05, WebCost: webCost, AppCost: 0.006, Queries: none},
		{Name: "BrowseCategories", Weight: 0.075, WebCost: webCost, AppCost: 0.012,
			Queries: func(g *GenContext) []legacy.Query {
				return []legacy.Query{q(0.010, "SELECT id, name FROM categories")}
			}},
		{Name: "SearchItemsInCategory", Weight: 0.15, WebCost: webCost, AppCost: 0.016,
			Queries: func(g *GenContext) []legacy.Query {
				cat := g.RNG.Intn(max(1, g.DS.Categories))
				return []legacy.Query{
					q(0.056, "SELECT * FROM items WHERE category = %d ORDER BY end_date LIMIT 20", cat),
				}
			}},
		{Name: "BrowseRegions", Weight: 0.03, WebCost: webCost, AppCost: 0.012,
			Queries: func(g *GenContext) []legacy.Query {
				return []legacy.Query{q(0.010, "SELECT id, name FROM regions")}
			}},
		{Name: "BrowseCategoriesInRegion", Weight: 0.03, WebCost: webCost, AppCost: 0.012,
			Queries: func(g *GenContext) []legacy.Query {
				return []legacy.Query{q(0.015, "SELECT id, name FROM categories")}
			}},
		{Name: "SearchItemsInRegion", Weight: 0.06, WebCost: webCost, AppCost: 0.016,
			Queries: func(g *GenContext) []legacy.Query {
				region := g.RNG.Intn(max(1, g.DS.Regions))
				cat := g.RNG.Intn(max(1, g.DS.Categories))
				return []legacy.Query{
					q(0.020, "SELECT id FROM users WHERE region = %d", region),
					q(0.036, "SELECT * FROM items WHERE category = %d ORDER BY end_date LIMIT 20", cat),
				}
			}},
		{Name: "ViewItem", Weight: 0.15, WebCost: webCost, AppCost: 0.015,
			Queries: func(g *GenContext) []legacy.Query {
				item := g.RNG.Intn(max(1, g.DS.Items))
				return []legacy.Query{
					q(0.018, "SELECT * FROM items WHERE id = %d", item),
					q(0.026, "SELECT COUNT(*) FROM bids WHERE item_id = %d", item),
				}
			}},
		{Name: "ViewUserInfo", Weight: 0.04, WebCost: webCost, AppCost: 0.014,
			Queries: func(g *GenContext) []legacy.Query {
				user := g.RNG.Intn(max(1, g.DS.Users))
				return []legacy.Query{
					q(0.014, "SELECT * FROM users WHERE id = %d", user),
					q(0.0235, "SELECT * FROM comments WHERE to_user = %d LIMIT 10", user),
				}
			}},
		{Name: "ViewBidHistory", Weight: 0.04, WebCost: webCost, AppCost: 0.014,
			Queries: func(g *GenContext) []legacy.Query {
				item := g.RNG.Intn(max(1, g.DS.Items))
				return []legacy.Query{
					q(0.044, "SELECT * FROM bids WHERE item_id = %d ORDER BY date DESC LIMIT 20", item),
				}
			}},
		{Name: "BuyNowAuth", Weight: 0.015, WebCost: webCost, AppCost: 0.006, Queries: none},
		{Name: "BuyNow", Weight: 0.015, WebCost: webCost, AppCost: 0.014,
			Queries: func(g *GenContext) []legacy.Query {
				item := g.RNG.Intn(max(1, g.DS.Items))
				return []legacy.Query{q(0.025, "SELECT * FROM items WHERE id = %d", item)}
			}},
		{Name: "StoreBuyNow", Weight: 0.02, Write: true, WebCost: webCost, AppCost: 0.016,
			Queries: func(g *GenContext) []legacy.Query {
				item := g.RNG.Intn(max(1, g.DS.Items))
				buyer := g.RNG.Intn(max(1, g.DS.Users))
				id := g.Counters.nextBuyNow
				g.Counters.nextBuyNow++
				return []legacy.Query{
					q(0.015, "SELECT * FROM items WHERE id = %d", item),
					q(0.008, "INSERT INTO buy_now (id, buyer_id, item_id, qty, date) VALUES (%d, %d, %d, 1, %d)",
						id, buyer, item, id),
					q(0.006, "UPDATE items SET end_date = 0 WHERE id = %d", item),
				}
			}},
		{Name: "PutBidAuth", Weight: 0.025, WebCost: webCost, AppCost: 0.006, Queries: none},
		{Name: "PutBid", Weight: 0.025, WebCost: webCost, AppCost: 0.014,
			Queries: func(g *GenContext) []legacy.Query {
				item := g.RNG.Intn(max(1, g.DS.Items))
				return []legacy.Query{
					q(0.018, "SELECT * FROM items WHERE id = %d", item),
					q(0.0195, "SELECT * FROM bids WHERE item_id = %d ORDER BY bid DESC LIMIT 3", item),
				}
			}},
		{Name: "StoreBid", Weight: 0.055, Write: true, WebCost: webCost, AppCost: 0.016,
			Queries: func(g *GenContext) []legacy.Query {
				item := g.RNG.Intn(max(1, g.DS.Items))
				user := g.RNG.Intn(max(1, g.DS.Users))
				id := g.Counters.nextBid
				g.Counters.nextBid++
				amount := 1 + g.RNG.Float64()*200
				return []legacy.Query{
					q(0.025, "SELECT * FROM items WHERE id = %d", item),
					q(0.008, "INSERT INTO bids (id, user_id, item_id, bid, date) VALUES (%d, %d, %d, %.2f, %d)",
						id, user, item, amount, id),
					q(0.006, "UPDATE items SET max_bid = %.2f, nb_of_bids = %d WHERE id = %d",
						amount, id, item),
				}
			}},
		{Name: "PutCommentAuth", Weight: 0.01, WebCost: webCost, AppCost: 0.006, Queries: none},
		{Name: "PutComment", Weight: 0.01, WebCost: webCost, AppCost: 0.014,
			Queries: func(g *GenContext) []legacy.Query {
				user := g.RNG.Intn(max(1, g.DS.Users))
				return []legacy.Query{q(0.025, "SELECT * FROM users WHERE id = %d", user)}
			}},
		{Name: "StoreComment", Weight: 0.02, Write: true, WebCost: webCost, AppCost: 0.016,
			Queries: func(g *GenContext) []legacy.Query {
				from := g.RNG.Intn(max(1, g.DS.Users))
				to := g.RNG.Intn(max(1, g.DS.Users))
				item := g.RNG.Intn(max(1, g.DS.Items))
				id := g.Counters.nextComment
				g.Counters.nextComment++
				return []legacy.Query{
					q(0.008, "INSERT INTO comments (id, from_user, to_user, item_id, rating, comment) VALUES (%d, %d, %d, %d, %d, 'emulated comment')",
						id, from, to, item, g.RNG.Intn(5)),
					q(0.006, "UPDATE users SET rating = %d WHERE id = %d", g.RNG.Intn(10), to),
				}
			}},
		{Name: "Sell", Weight: 0.01, WebCost: webCost, AppCost: 0.006, Queries: none},
		{Name: "SelectCategoryToSellItem", Weight: 0.01, WebCost: webCost, AppCost: 0.012,
			Queries: func(g *GenContext) []legacy.Query {
				return []legacy.Query{q(0.019, "SELECT id, name FROM categories")}
			}},
		{Name: "SellItemForm", Weight: 0.01, WebCost: webCost, AppCost: 0.008, Queries: none},
		{Name: "RegisterItem", Weight: 0.02, Write: true, WebCost: webCost, AppCost: 0.016,
			Queries: func(g *GenContext) []legacy.Query {
				id := g.Counters.nextItem
				g.Counters.nextItem++
				seller := g.RNG.Intn(max(1, g.DS.Users))
				cat := g.RNG.Intn(max(1, g.DS.Categories))
				price := 1 + g.RNG.Float64()*100
				return []legacy.Query{
					q(0.010, "INSERT INTO items (id, name, seller, category, initial_price, max_bid, nb_of_bids, end_date, buy_now) VALUES (%d, 'new-item-%d', %d, %d, %.2f, %.2f, 0, 2000000, %.2f)",
						id, id, seller, cat, price, price, price*1.5),
				}
			}},
		{Name: "Register", Weight: 0.01, WebCost: webCost, AppCost: 0.006, Queries: none},
		{Name: "RegisterUser", Weight: 0.01, Write: true, WebCost: webCost, AppCost: 0.016,
			Queries: func(g *GenContext) []legacy.Query {
				id := g.Counters.nextUser
				g.Counters.nextUser++
				region := g.RNG.Intn(max(1, g.DS.Regions))
				return []legacy.Query{
					q(0.010, "INSERT INTO users (id, nickname, password, region, rating, balance) VALUES (%d, 'newuser%d', 'pw', %d, 0, 0.0)",
						id, id, region),
				}
			}},
		{Name: "AboutMe", Weight: 0.03, WebCost: webCost, AppCost: 0.020,
			Queries: func(g *GenContext) []legacy.Query {
				user := g.RNG.Intn(max(1, g.DS.Users))
				return []legacy.Query{
					q(0.014, "SELECT * FROM users WHERE id = %d", user),
					q(0.024, "SELECT * FROM bids WHERE user_id = %d ORDER BY date DESC LIMIT 10", user),
					q(0.0245, "SELECT * FROM items WHERE seller = %d LIMIT 10", user),
				}
			}},
	}
}

// Mix is a weighted interaction set with a name.
type Mix struct {
	Name         string
	Interactions []Interaction
	cumulative   []float64
	total        float64
	byName       map[string]*Interaction
}

// NewMix builds a mix from interactions, precomputing the sampling table.
func NewMix(name string, interactions []Interaction) *Mix {
	m := &Mix{Name: name, Interactions: interactions, byName: make(map[string]*Interaction)}
	sum := 0.0
	for i := range interactions {
		sum += interactions[i].Weight
		m.cumulative = append(m.cumulative, sum)
		m.byName[interactions[i].Name] = &m.Interactions[i]
	}
	m.total = sum
	return m
}

// ByName looks an interaction up by its servlet name.
func (m *Mix) ByName(name string) (*Interaction, bool) {
	it, ok := m.byName[name]
	return it, ok
}

// BiddingMix is RUBiS's default mix (~12.5% read-write interactions).
func BiddingMix() *Mix { return NewMix("bidding", Interactions()) }

// BrowsingMix is the read-only variant: write interactions get zero
// weight (the browsing mix exercises only read paths).
func BrowsingMix() *Mix {
	its := Interactions()
	out := make([]Interaction, 0, len(its))
	for _, it := range its {
		if it.Write {
			it.Weight = 0
		}
		out = append(out, it)
	}
	return NewMix("browsing", out)
}

// Pick samples an interaction according to the weights.
func (m *Mix) Pick(rng *rand.Rand) *Interaction {
	x := rng.Float64() * m.total
	for i, c := range m.cumulative {
		if x < c {
			return &m.Interactions[i]
		}
	}
	return &m.Interactions[len(m.Interactions)-1]
}

// WriteFraction returns the mix's total weight on write interactions.
func (m *Mix) WriteFraction() float64 {
	w := 0.0
	for _, it := range m.Interactions {
		if it.Write {
			w += it.Weight
		}
	}
	return w / m.total
}

// Request materializes an interaction into a WebRequest.
func (it *Interaction) Request(g *GenContext) *legacy.WebRequest {
	var queries []legacy.Query
	if it.Queries != nil {
		queries = it.Queries(g)
	}
	return &legacy.WebRequest{
		Interaction: it.Name,
		WebCost:     it.WebCost,
		AppCost:     it.AppCost,
		Queries:     queries,
	}
}

// ExpectedCosts returns the weighted mean per-request CPU demand of the
// mix at each tier: web, app, database reads, database writes. These are
// the calibration constants DESIGN.md derives the saturation points from.
func (m *Mix) ExpectedCosts(ds Dataset, seed int64, samples int) (web, app, dbRead, dbWrite float64) {
	rng := rand.New(rand.NewSource(seed))
	g := &GenContext{DS: ds, RNG: rng, Counters: NewCounters(ds)}
	for i := 0; i < samples; i++ {
		it := m.Pick(rng)
		req := it.Request(g)
		web += req.WebCost
		app += req.AppCost
		for _, query := range req.Queries {
			if sqlengine.IsWrite(query.SQL) {
				dbWrite += query.Cost
			} else {
				dbRead += query.Cost
			}
		}
	}
	n := float64(samples)
	return web / n, app / n, dbRead / n, dbWrite / n
}
