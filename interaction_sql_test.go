package jade

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"testing"

	"jade/internal/rubis"
)

// interactionSQLGolden renders what testdata/interaction_sql.golden pins:
// for three seeds, each of the 26 interactions issued 50 times through
// Interaction.Request, one header line per request (seed, interaction, web
// and app cost, and the generator's next Int63 after the request, so that a
// moved or added RNG draw shows) followed by one line per statement (cost
// and SQL text).
func interactionSQLGolden() []byte {
	var out bytes.Buffer
	ds := rubis.DefaultDataset()
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		g := &rubis.GenContext{DS: ds, RNG: rng, Counters: rubis.NewCounters(ds)}
		its := rubis.Interactions()
		for round := 0; round < 50; round++ {
			for i := range its {
				req := its[i].Request(g)
				fmt.Fprintf(&out, "%d %s %s %s %d\n", seed, req.Interaction,
					strconv.FormatFloat(req.WebCost, 'g', -1, 64), strconv.FormatFloat(req.AppCost, 'g', -1, 64), rng.Int63())
				for _, q := range req.Queries {
					fmt.Fprintf(&out, "\t%s\t%s\n", strconv.FormatFloat(q.Cost, 'g', -1, 64), q.SQL)
				}
			}
		}
	}
	return out.Bytes()
}

// The file was written at the parent of the commit that made reads prepared
// statements (the Sprintf path) and has not been regenerated since:
// Interaction.Request must keep producing these bytes.
func TestInteractionSQLGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "interaction_sql.golden"), interactionSQLGolden())
}
