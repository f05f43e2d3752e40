package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Runner produces one experiment's table.
type Runner func(Options) (*Table, error)

// Registry maps experiment IDs to runners; it is the experiment index
// (`lass-bench -list` prints it).
var Registry = map[string]Runner{
	"table1":                 func(Options) (*Table, error) { return Table1(), nil },
	"fig3":                   Fig3,
	"fig4":                   Fig4,
	"fig5":                   Fig5,
	"fig6":                   Fig6,
	"fig7":                   Fig7,
	"fig8":                   Fig8,
	"fig9":                   Fig9,
	"federation":             Federation,
	"federation-trace":       FederationTrace,
	"federation-fairshare":   FederationFairShare,
	"federation-placers":     FederationPlacers,
	"federation-coordinator": FederationCoordinator,
	"federation-chaos":       FederationChaos,
	"federation-hierarchy":   FederationHierarchy,
	"scenario":               ScenarioRun,
	"openwhisk":              OpenWhisk,
	"ablation-estimator":     AblationEstimator,
	"ablation-placement":     AblationPlacement,
	"ablation-hetmodel":      AblationHetModel,
	"ablation-ggc":           AblationGGC,
}

// IDs returns the registered experiment IDs, sorted, paper experiments
// first.
func IDs() []string {
	var papers, ablations []string
	for id := range Registry {
		if strings.HasPrefix(id, "ablation") {
			ablations = append(ablations, id)
		} else {
			papers = append(papers, id)
		}
	}
	sort.Strings(papers)
	sort.Strings(ablations)
	return append(papers, ablations...)
}

// Run executes one experiment by ID.
func Run(id string, opt Options) (*Table, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return r(opt)
}
