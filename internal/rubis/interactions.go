package rubis

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

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

	text bool // writes render their SQL text instead of their statement (Request)
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
	// Queries appends the interaction's statements to qs and returns it
	// (nil for pure-HTML pages): reads as prepared statements with their
	// argument, writes as built statements; neither carries text until
	// something asks for it (Request does; the emulator does not).
	Queries func(g *GenContext, qs []legacy.Query) []legacy.Query

	idx int // position in the Mix that holds it
}

// The reads of the 26 interactions: the prepared statements the RUBiS
// servlets hold on their Connector/J connection, parsed once per process.
var (
	selCategories    = mustPrepare("SELECT id, name FROM categories")
	selRegions       = mustPrepare("SELECT id, name FROM regions")
	selItemsInCat    = mustPrepare("SELECT * FROM items WHERE category = ? ORDER BY end_date LIMIT 20")
	selUsersInRegion = mustPrepare("SELECT id FROM users WHERE region = ?")
	selItem          = mustPrepare("SELECT * FROM items WHERE id = ?")
	countBidsOnItem  = mustPrepare("SELECT COUNT(*) FROM bids WHERE item_id = ?")
	selUser          = mustPrepare("SELECT * FROM users WHERE id = ?")
	selCommentsTo    = mustPrepare("SELECT * FROM comments WHERE to_user = ? LIMIT 10")
	selBidHistory    = mustPrepare("SELECT * FROM bids WHERE item_id = ? ORDER BY date DESC LIMIT 20")
	selTopBids       = mustPrepare("SELECT * FROM bids WHERE item_id = ? ORDER BY bid DESC LIMIT 3")
	selBidsByUser    = mustPrepare("SELECT * FROM bids WHERE user_id = ? ORDER BY date DESC LIMIT 10")
	selItemsBySeller = mustPrepare("SELECT * FROM items WHERE seller = ? LIMIT 10")
)

func mustPrepare(template string) *sqlengine.Prepared {
	p, err := sqlengine.Prepare(template)
	if err != nil {
		panic(err)
	}
	return p
}

// rd is a costed read: a prepared statement and the argument of its
// placeholder (ignored by a statement that has none).
func rd(cost float64, p *sqlengine.Prepared, arg int) legacy.Query {
	return legacy.Query{Prepared: p, Arg: int64(arg), Cost: cost}
}

// The writes of the 26 interactions, each defined once by its text (see
// write), prepared once per process.
var (
	insBuyNow     = mustWrite("INSERT INTO buy_now (id, buyer_id, item_id, qty, date) VALUES (%d, %d, %d, 1, %d)")
	closeItem     = mustWrite("UPDATE items SET end_date = 0 WHERE id = %d")
	insBid        = mustWrite("INSERT INTO bids (id, user_id, item_id, bid, date) VALUES (%d, %d, %d, %.2f, %d)")
	setMaxBid     = mustWrite("UPDATE items SET max_bid = %.2f, nb_of_bids = %d WHERE id = %d")
	insComment    = mustWrite("INSERT INTO comments (id, from_user, to_user, item_id, rating, comment) VALUES (%d, %d, %d, %d, %d, 'emulated comment')")
	setUserRating = mustWrite("UPDATE users SET rating = %d WHERE id = %d")
	insItem       = mustWrite("INSERT INTO items (id, name, seller, category, initial_price, max_bid, nb_of_bids, end_date, buy_now) VALUES (%d, 'new-item-%d', %d, %d, %.2f, %.2f, 0, 2000000, %.2f)")
	insUser       = mustWrite("INSERT INTO users (id, nickname, password, region, rating, balance) VALUES (%d, 'newuser%d', 'pw', %d, 0, 0.0)")
)

// write is one write statement of the mix, defined once by its SQL text as
// fmt formats it: each verb stands for one drawn value, %d for an INT
// literal, %.2f for a FLOAT one and %d inside a quoted literal
// ('newuser%d') for a TEXT one. The statement is the format prepared once,
// each verb's literal a placeholder, and bound to the values of one write:
// an int as itself, a float as cents of it (the double its %.2f text reads
// back as), a quoted literal as its text with the number in place. So the
// text Request renders and the statement the emulator runs come from the
// same format and the same draws, and a write is built without text.
type write struct {
	format string
	stmt   *sqlengine.Prepared
	slots  []slot // one per verb, in order
}

// slot is what a verb's value becomes: kind 'd' an int64, 'f' cents of a
// float64, 's' the text prefix, the number, suffix.
type slot struct {
	kind           byte
	prefix, suffix string
}

func mustWrite(format string) *write {
	w := &write{format: format}
	var template strings.Builder
	for i := 0; i < len(format); i++ {
		switch rest := format[i:]; {
		case rest[0] == '\'':
			n := strings.IndexByte(rest[1:], '\'') + 2 // the quoted literal, quotes included
			lit := rest[1 : n-1]
			if k := strings.Index(lit, "%d"); k >= 0 {
				w.slots = append(w.slots, slot{kind: 's', prefix: lit[:k], suffix: lit[k+2:]})
				template.WriteByte('?')
			} else {
				template.WriteString(rest[:n])
			}
			i += n - 1
		case strings.HasPrefix(rest, "%d"):
			w.slots = append(w.slots, slot{kind: 'd'})
			template.WriteByte('?')
			i++
		case strings.HasPrefix(rest, "%.2f"):
			w.slots = append(w.slots, slot{kind: 'f'})
			template.WriteByte('?')
			i += 3
		default:
			template.WriteByte(rest[0])
		}
	}
	w.stmt = mustPrepare(template.String())
	if w.stmt.NumArgs() != len(w.slots) || !w.stmt.IsWrite() || strings.Count(format, "%") != len(w.slots) {
		panic(fmt.Sprintf("rubis: %q is not a write with one value per verb", format))
	}
	return w
}

// wr is a costed write with its values, one per verb of w in order: an
// int for %d, a float64 for %.2f. The emulator's write is the statement,
// bound without printing or parsing anything; Request's is the text.
func wr(g *GenContext, cost float64, w *write, args ...any) legacy.Query {
	if g.text {
		return legacy.Query{SQL: w.text(args), Cost: cost}
	}
	var buf [9]sqlengine.Value
	vals := buf[:len(w.slots)]
	for i, s := range w.slots {
		if j := slices.Index(args[:i], args[i]); j >= 0 && w.slots[j].kind == s.kind {
			vals[i] = vals[j] // one boxed value for a draw the write repeats (an id, a price)
			continue
		}
		switch s.kind {
		case 'd':
			vals[i] = int64(args[i].(int))
		case 'f':
			vals[i] = cents(args[i].(float64))
		case 's':
			vals[i] = s.prefix + strconv.Itoa(args[i].(int)) + s.suffix
		}
	}
	stmt, err := w.stmt.Bind(vals...)
	if err != nil {
		panic(fmt.Sprintf("rubis: %q: %v", w.format, err)) // a call with too few values: a bug in the table below
	}
	return legacy.Query{Stmt: stmt, Cost: cost}
}

// text renders the write's SQL, its values copied so that wr's stay on
// the caller's stack.
func (w *write) text(args []any) string {
	vals := make([]any, len(args))
	for i, a := range args {
		switch a := a.(type) {
		case int:
			vals[i] = a
		case float64:
			vals[i] = a
		}
	}
	return fmt.Sprintf(w.format, vals...)
}

// webCost is the flat web-tier CPU cost per interaction.
const webCost = 0.002

// Interactions returns the 26 interactions with the bidding-mix weights
// (~12.5% read-write interactions, matching RUBiS's default bidding mix).
func Interactions() []Interaction {
	return []Interaction{
		{Name: "Home", Weight: 0.08, WebCost: webCost, AppCost: 0.008},
		{Name: "Browse", Weight: 0.05, WebCost: webCost, AppCost: 0.006},
		{Name: "BrowseCategories", Weight: 0.075, WebCost: webCost, AppCost: 0.012,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				return append(qs, rd(0.010, selCategories, 0))
			}},
		{Name: "SearchItemsInCategory", Weight: 0.15, WebCost: webCost, AppCost: 0.016,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				cat := g.RNG.Intn(max(1, g.DS.Categories))
				return append(qs, rd(0.056, selItemsInCat, cat))
			}},
		{Name: "BrowseRegions", Weight: 0.03, WebCost: webCost, AppCost: 0.012,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				return append(qs, rd(0.010, selRegions, 0))
			}},
		{Name: "BrowseCategoriesInRegion", Weight: 0.03, WebCost: webCost, AppCost: 0.012,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				return append(qs, rd(0.015, selCategories, 0))
			}},
		{Name: "SearchItemsInRegion", Weight: 0.06, WebCost: webCost, AppCost: 0.016,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				region := g.RNG.Intn(max(1, g.DS.Regions))
				cat := g.RNG.Intn(max(1, g.DS.Categories))
				return append(qs,
					rd(0.020, selUsersInRegion, region),
					rd(0.036, selItemsInCat, cat))
			}},
		{Name: "ViewItem", Weight: 0.15, WebCost: webCost, AppCost: 0.015,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				item := g.RNG.Intn(max(1, g.DS.Items))
				return append(qs,
					rd(0.018, selItem, item),
					rd(0.026, countBidsOnItem, item))
			}},
		{Name: "ViewUserInfo", Weight: 0.04, WebCost: webCost, AppCost: 0.014,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				user := g.RNG.Intn(max(1, g.DS.Users))
				return append(qs,
					rd(0.014, selUser, user),
					rd(0.0235, selCommentsTo, user))
			}},
		{Name: "ViewBidHistory", Weight: 0.04, WebCost: webCost, AppCost: 0.014,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				item := g.RNG.Intn(max(1, g.DS.Items))
				return append(qs, rd(0.044, selBidHistory, item))
			}},
		{Name: "BuyNowAuth", Weight: 0.015, WebCost: webCost, AppCost: 0.006},
		{Name: "BuyNow", Weight: 0.015, WebCost: webCost, AppCost: 0.014,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				item := g.RNG.Intn(max(1, g.DS.Items))
				return append(qs, rd(0.025, selItem, item))
			}},
		{Name: "StoreBuyNow", Weight: 0.02, Write: true, WebCost: webCost, AppCost: 0.016,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				item := g.RNG.Intn(max(1, g.DS.Items))
				buyer := g.RNG.Intn(max(1, g.DS.Users))
				id := g.Counters.nextBuyNow
				g.Counters.nextBuyNow++
				return append(qs,
					rd(0.015, selItem, item),
					wr(g, 0.008, insBuyNow, id, buyer, item, id),
					wr(g, 0.006, closeItem, item))
			}},
		{Name: "PutBidAuth", Weight: 0.025, WebCost: webCost, AppCost: 0.006},
		{Name: "PutBid", Weight: 0.025, WebCost: webCost, AppCost: 0.014,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				item := g.RNG.Intn(max(1, g.DS.Items))
				return append(qs,
					rd(0.018, selItem, item),
					rd(0.0195, selTopBids, item))
			}},
		{Name: "StoreBid", Weight: 0.055, Write: true, WebCost: webCost, AppCost: 0.016,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				item := g.RNG.Intn(max(1, g.DS.Items))
				user := g.RNG.Intn(max(1, g.DS.Users))
				id := g.Counters.nextBid
				g.Counters.nextBid++
				amount := 1 + float64(g.RNG.Float64()*200)
				return append(qs,
					rd(0.025, selItem, item),
					wr(g, 0.008, insBid, id, user, item, amount, id),
					wr(g, 0.006, setMaxBid, amount, id, item))
			}},
		{Name: "PutCommentAuth", Weight: 0.01, WebCost: webCost, AppCost: 0.006},
		{Name: "PutComment", Weight: 0.01, WebCost: webCost, AppCost: 0.014,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				user := g.RNG.Intn(max(1, g.DS.Users))
				return append(qs, rd(0.025, selUser, user))
			}},
		{Name: "StoreComment", Weight: 0.02, Write: true, WebCost: webCost, AppCost: 0.016,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				from := g.RNG.Intn(max(1, g.DS.Users))
				to := g.RNG.Intn(max(1, g.DS.Users))
				item := g.RNG.Intn(max(1, g.DS.Items))
				id := g.Counters.nextComment
				g.Counters.nextComment++
				return append(qs,
					wr(g, 0.008, insComment, id, from, to, item, g.RNG.Intn(5)),
					wr(g, 0.006, setUserRating, g.RNG.Intn(10), to))
			}},
		{Name: "Sell", Weight: 0.01, WebCost: webCost, AppCost: 0.006},
		{Name: "SelectCategoryToSellItem", Weight: 0.01, WebCost: webCost, AppCost: 0.012,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				return append(qs, rd(0.019, selCategories, 0))
			}},
		{Name: "SellItemForm", Weight: 0.01, WebCost: webCost, AppCost: 0.008},
		{Name: "RegisterItem", Weight: 0.02, Write: true, WebCost: webCost, AppCost: 0.016,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				id := g.Counters.nextItem
				g.Counters.nextItem++
				seller := g.RNG.Intn(max(1, g.DS.Users))
				cat := g.RNG.Intn(max(1, g.DS.Categories))
				price := 1 + float64(g.RNG.Float64()*100)
				return append(qs,
					wr(g, 0.010, insItem, id, id, seller, cat, price, price, price*1.5))
			}},
		{Name: "Register", Weight: 0.01, WebCost: webCost, AppCost: 0.006},
		{Name: "RegisterUser", Weight: 0.01, Write: true, WebCost: webCost, AppCost: 0.016,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				id := g.Counters.nextUser
				g.Counters.nextUser++
				region := g.RNG.Intn(max(1, g.DS.Regions))
				return append(qs,
					wr(g, 0.010, insUser, id, id, region))
			}},
		{Name: "AboutMe", Weight: 0.03, WebCost: webCost, AppCost: 0.020,
			Queries: func(g *GenContext, qs []legacy.Query) []legacy.Query {
				user := g.RNG.Intn(max(1, g.DS.Users))
				return append(qs,
					rd(0.014, selUser, user),
					rd(0.024, selBidsByUser, user),
					rd(0.0245, selItemsBySeller, user))
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
		m.Interactions[i].idx = i
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

// build fills req with the interaction's costs and its statements, the
// statements appended to qs.
func (it *Interaction) build(g *GenContext, req *legacy.WebRequest, qs []legacy.Query) {
	req.Interaction, req.WebCost, req.AppCost = it.Name, it.WebCost, it.AppCost
	if it.Queries != nil {
		req.Queries = it.Queries(g, qs)
	}
}

// Request materializes an interaction into a WebRequest whose every
// statement carries its SQL text: the form for whoever reads the
// statements as text (tools, tests, the benchmark's driver), not for the
// emulator or the calibration, whose requests carry no text.
func (it *Interaction) Request(g *GenContext) *legacy.WebRequest {
	req := &legacy.WebRequest{}
	g.text = true
	it.build(g, req, nil)
	g.text = false
	for i := range req.Queries {
		q := &req.Queries[i]
		if q.SQL != "" {
			continue
		}
		var err error
		if q.SQL, err = q.Text(); err != nil {
			panic(fmt.Sprintf("rubis: %s: %v", it.Name, err)) // a template with two placeholders: a bug in the table above
		}
	}
	return req
}

// ExpectedCosts returns the weighted mean per-request CPU demand of the
// mix at each tier: web, app, database reads, database writes. These are
// the calibration constants DESIGN.md derives the saturation points from;
// they are FluidDemand's per-tier costs, from the same Monte Carlo loop.
func (m *Mix) ExpectedCosts(ds Dataset, seed int64, samples int) (web, app, dbRead, dbWrite float64) {
	d := m.FluidDemand(ds, seed, samples)
	return d.Web, d.App, d.DBRead, d.DBWrite
}
