package experiments

import (
	"reflect"
	"testing"

	"frontiersim/internal/report"
)

// The pricing cache must be invisible in results: the campaign
// experiments with their cache (always on) and with it removed must
// produce identical tables, except for the hit-rate row the cached run
// appends. This is the campaign-level pin of the cache's bit-identity
// contract — every delivered walltime, slowdown quantile, and
// utilization figure flows through Bind totals, so a single ULP of
// pricing drift would surface here.
func TestYearCampaignCachedMatchesUncached(t *testing.T) {
	for _, exp := range []struct {
		id  string
		run func(Options) (*report.Table, error)
	}{{"ext-year", ExtYear}, {"ext-campaign", ExtCampaign}} {
		t.Run(exp.id, func(t *testing.T) {
			run := func(uncached bool) (rows []report.Row, hitRate string) {
				o := quickOpts()
				o.uncached = uncached
				tab, err := exp.run(o)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range tab.Rows {
					if r.Name == "pricing cache" {
						hitRate = r.Measured
						continue
					}
					rows = append(rows, r)
				}
				return rows, hitRate
			}
			cached, hitRate := run(false)
			uncached, none := run(true)
			if !reflect.DeepEqual(cached, uncached) {
				t.Errorf("cached and uncached campaigns diverge:\ncached:   %v\nuncached: %v", cached, uncached)
			}
			// The cached run must actually have exercised the cache: the
			// campaign mixes repeat placements by design.
			if hitRate == "" || hitRate[0] == '0' {
				t.Errorf("suspicious or missing hit-rate row: %q", hitRate)
			}
			if none != "" {
				t.Errorf("uncached run reports a hit rate: %q", none)
			}
		})
	}
}
