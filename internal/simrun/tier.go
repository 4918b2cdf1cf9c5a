package simrun

// Tier classifies the fidelity of a simulation answer. The lattice is
//
//	statistical < interval < detailed
//
// and orders how much of the machine's timing behaviour the answer
// actually simulated: a statistical-tier answer timed a short synthetic
// clone, and the interval/detailed tiers timed the full instruction
// budget under the scenario's own core model. A serving layer may answer
// a query from any tier and later replace the answer with a higher one —
// never the reverse (the upgrade-only cache invariant).
type Tier string

const (
	// TierStatistical: the answer was extrapolated from a short
	// synthetic clone generated from a statistical profile
	// (internal/statsim) — the cheapest, least faithful tier.
	TierStatistical Tier = "statistical"
	// TierInterval: the full instruction budget ran under the interval
	// model (or another full-budget analytical model).
	TierInterval Tier = "interval"
	// TierDetailed: the full instruction budget ran under the detailed
	// out-of-order model — the top of the lattice.
	TierDetailed Tier = "detailed"
)

// tierRanks orders the lattice. The empty string, found in payloads
// written before tiers existed, ranks above every named tier: an untagged
// entry was produced by the full engine (the only writer back then), so it
// is definitive and must never be clobbered by an estimator. Any other
// unknown tier — one a since-retired estimator wrote into a persistent
// cache — ranks below every named tier, so the next request upgrades it.
var tierRanks = map[Tier]int{
	TierStatistical: 1,
	TierInterval:    2,
	TierDetailed:    3,
	"":              4,
}

// Rank returns the tier's position in the lattice; higher is more
// faithful. The untagged tier "" is definitive; other unknown tiers rank
// 0, below every estimate.
func (t Tier) Rank() int { return tierRanks[t] }

// AtLeast reports whether an answer at tier t satisfies a request for
// tier want.
func (t Tier) AtLeast(want Tier) bool { return t.Rank() >= want.Rank() }

// Tiers lists the named tiers, cheapest first.
func Tiers() []Tier {
	return []Tier{TierStatistical, TierInterval, TierDetailed}
}
