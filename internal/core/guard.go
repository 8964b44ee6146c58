// Runtime invariant guards: an opt-in checking layer (CollectConfig.Guard,
// or ADDC_GUARD=1 in the environment) that asserts, while a collection run
// executes, the structural properties the paper proves and the simulator is
// supposed to maintain by construction:
//
//   - concurrent-set separation — all simultaneously transmitting SUs on one
//     channel are pairwise at least the SU coordination range apart (with
//     the range set to the PCR this is the interference-freedom of Lemmas
//     2–3);
//   - routing-tree integrity — after every self-healing repair the live
//     parent graph is acyclic and every live chain terminates at the base
//     station or at a crashed node (orphans are a legal degraded state,
//     cycles never are);
//   - packet conservation — delivered + lost + in-flight packets always
//     equal the snapshot size n.
//
// Violations are never silent: each one is recorded as a structured
// InvariantViolation in the Result's GuardReport, counted on the metrics
// registry (guard_violations_total), and — when the run would otherwise
// succeed — surfaced as an *InvariantError from Collect.
package core

import (
	"fmt"
	"math"
	"os"

	"addcrn/internal/mac"
	"addcrn/internal/metrics"
	"addcrn/internal/netmodel"
	"addcrn/internal/sim"
)

// guardEnv force-enables invariant guards process-wide; `make guard` runs
// the test suite with it set.
var guardEnv = os.Getenv("ADDC_GUARD") != ""

// ViolationKind classifies a guarded invariant.
type ViolationKind uint8

// Guarded invariants.
const (
	// ViolationConcurrentSet: two SUs transmitting simultaneously on one
	// channel were closer than the SU coordination range (Lemmas 2-3 with
	// PCR sensing).
	ViolationConcurrentSet ViolationKind = iota + 1
	// ViolationTree: the routing parent graph acquired a cycle or a live
	// non-root chain ended without reaching the base station or a crashed
	// node.
	ViolationTree
	// ViolationConservation: delivered + lost + in-flight packets did not
	// equal the snapshot size.
	ViolationConservation
)

// String implements fmt.Stringer.
func (k ViolationKind) String() string {
	switch k {
	case ViolationConcurrentSet:
		return "concurrent-set"
	case ViolationTree:
		return "tree"
	case ViolationConservation:
		return "conservation"
	default:
		return fmt.Sprintf("violation(%d)", uint8(k))
	}
}

// InvariantViolation is one detected breach of a guarded invariant.
type InvariantViolation struct {
	Kind ViolationKind
	// Time is the virtual time of detection.
	Time sim.Time
	// Node is the offending node where one is identifiable, -1 otherwise.
	Node int32
	// Detail is a human-readable description of the breach.
	Detail string
}

// String implements fmt.Stringer.
func (v InvariantViolation) String() string {
	return fmt.Sprintf("%s@%v node=%d: %s", v.Kind, v.Time.Duration(), v.Node, v.Detail)
}

// maxGuardViolations caps how many violations a report retains verbatim; a
// corrupted run could otherwise grow the report without bound. Overflow is
// still counted in Dropped.
const maxGuardViolations = 16

// GuardReport summarizes invariant-guard activity over one run. It is
// attached to the Result whenever guards were enabled, violations or not.
type GuardReport struct {
	// ConcurrencyChecks, TreeChecks and ConservationChecks count how many
	// times each invariant was evaluated.
	ConcurrencyChecks  int
	TreeChecks         int
	ConservationChecks int
	// Violations holds the first maxGuardViolations breaches; Dropped counts
	// breaches beyond the cap.
	Violations []InvariantViolation
	Dropped    int
}

// ViolationCount returns the total number of breaches, retained or dropped.
func (r *GuardReport) ViolationCount() int { return len(r.Violations) + r.Dropped }

// InvariantError reports that runtime invariant guards detected violations
// during an otherwise successful run. The full report (and the partial or
// complete Result) is still available to the caller.
type InvariantError struct {
	Report *GuardReport
}

// Error implements the error interface.
func (e *InvariantError) Error() string {
	n := e.Report.ViolationCount()
	if n == 0 {
		return "core: invariant guard error with empty report"
	}
	return fmt.Sprintf("core: %d invariant violation(s), first: %s", n, e.Report.Violations[0])
}

// guard is the per-run checking state. A nil *guard is inert.
type guard struct {
	nw      *netmodel.Network
	res     *Result
	m       *mac.MAC
	minSep  float64
	minSep2 float64
	// active lists currently transmitting SUs (small: bounded by the
	// concurrent-set size, not n).
	active []int32
	report GuardReport

	checks *metrics.Counter
	viols  *metrics.Counter
}

// newGuard builds the checking state for one run. minSep is the SU
// coordination (carrier-sensing) range the MAC runs with; reg may be nil.
func newGuard(nw *netmodel.Network, res *Result, minSep float64, reg *metrics.Registry) *guard {
	g := &guard{
		nw:      nw,
		res:     res,
		minSep:  minSep,
		minSep2: minSep * minSep,
	}
	if reg != nil {
		g.checks = reg.Counter("guard_checks_total")
		g.viols = reg.Counter("guard_violations_total")
	}
	return g
}

// attach hands the guard the MAC it inspects (queues, parents, liveness).
func (g *guard) attach(m *mac.MAC) { g.m = m }

func (g *guard) violate(kind ViolationKind, now sim.Time, node int32, detail string) {
	if g.viols != nil {
		g.viols.Inc()
	}
	if len(g.report.Violations) >= maxGuardViolations {
		g.report.Dropped++
		return
	}
	g.report.Violations = append(g.report.Violations, InvariantViolation{
		Kind: kind, Time: now, Node: node, Detail: detail,
	})
}

func (g *guard) check() {
	if g.checks != nil {
		g.checks.Inc()
	}
}

// txStart asserts the new transmitter is at least minSep away from every
// SU already on the air on its channel, then adds it to the active set.
func (g *guard) txStart(node int32, now sim.Time) {
	g.report.ConcurrencyChecks++
	g.check()
	pos := g.nw.SU[node]
	ch := g.m.Channel(node)
	for _, u := range g.active {
		if g.m.Channel(u) != ch {
			continue
		}
		if d2 := pos.Dist2(g.nw.SU[u]); d2 < g.minSep2 {
			g.violate(ViolationConcurrentSet, now, node, fmt.Sprintf(
				"transmitting %.2fm from concurrently transmitting node %d (need >= %.2fm)",
				math.Sqrt(d2), u, g.minSep))
		}
	}
	g.active = append(g.active, node)
}

// txEnd removes node from the active transmitter set (completion, abort and
// crash teardown all report through OnTxEnd).
func (g *guard) txEnd(node int32) {
	for i, u := range g.active {
		if u == node {
			g.active = append(g.active[:i], g.active[i+1:]...)
			return
		}
	}
}

// checkTree walks every live node's parent chain on the MAC's current
// routing view: a chain must reach the base station or dead-end at a
// crashed node (a legal orphan) within n hops; anything longer is a cycle.
func (g *guard) checkTree(now sim.Time) {
	g.report.TreeChecks++
	g.check()
	n := g.nw.NumNodes()
	root := g.m.Root()
	for v := 0; v < n; v++ {
		id := int32(v)
		if id == root || g.m.Down(id) {
			continue
		}
		u := id
		for steps := 0; ; steps++ {
			if steps > n {
				g.violate(ViolationTree, now, id, fmt.Sprintf(
					"parent chain from node %d exceeds %d hops (cycle)", id, n))
				break
			}
			p := g.m.Parent(u)
			if p == u {
				g.violate(ViolationTree, now, id, fmt.Sprintf(
					"node %d is its own parent", u))
				break
			}
			if p < 0 {
				if u != root {
					g.violate(ViolationTree, now, id, fmt.Sprintf(
						"live chain from node %d ends at non-root node %d with no parent", id, u))
				}
				break
			}
			if int(p) >= n {
				g.violate(ViolationTree, now, id, fmt.Sprintf(
					"node %d has out-of-range parent %d", u, p))
				break
			}
			if p == root {
				break
			}
			if g.m.Down(p) {
				break // orphaned subtree: degraded but legal
			}
			u = p
		}
	}
}

// conservation asserts delivered + lost + in-flight = n. It runs on every
// delivery and every fault loss (the only transitions that retire packets)
// and once more when the run ends.
func (g *guard) conservation(now sim.Time) {
	g.report.ConservationChecks++
	g.check()
	inflight := 0
	for v := 0; v < g.nw.NumNodes(); v++ {
		inflight += g.m.QueueLen(int32(v))
	}
	if got := g.res.Delivered + g.res.Lost + inflight; got != g.res.Expected {
		g.violate(ViolationConservation, now, -1, fmt.Sprintf(
			"delivered %d + lost %d + in-flight %d = %d, want %d",
			g.res.Delivered, g.res.Lost, inflight, got, g.res.Expected))
	}
}

// finish runs the final conservation check and publishes the report on the
// Result.
func (g *guard) finish(now sim.Time) {
	g.conservation(now)
	g.res.Guard = &g.report
}

// err returns the InvariantError to surface for this run, or nil when every
// check passed.
func (g *guard) err() error {
	if g == nil || g.report.ViolationCount() == 0 {
		return nil
	}
	return &InvariantError{Report: &g.report}
}
