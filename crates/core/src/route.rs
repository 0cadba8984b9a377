//! Energy-optimal routing over a [`RoadGraph`], with the DP velocity
//! optimizer as a lazy edge-cost oracle.
//!
//! The paper plans a velocity profile over one fixed corridor; this module
//! chooses the *route* by energy too (the ROADMAP's Ahmadi-et-al.
//! direction). A query asks for the cheapest junction-to-junction path
//! under the solver's blended objective `charge + time_weight·duration +
//! M·violations`, where each edge's cost is the optimum of the full
//! space–velocity–time DP over that edge's corridor. Pricing an edge is
//! therefore expensive, and the router's whole design is about evaluating
//! the oracle as few times as possible:
//!
//! 1. **Admissible pruning.** Every edge gets a certified lower bound from
//!    [`DpOptimizer::edge_bound_with`] — the solver's `emin` cost-to-go
//!    sweep plus the minimum traversal duration, no time-expanded DP. A
//!    Bellman–Ford sweep over these bounds (they can be negative on net
//!    regenerative corridors) yields an admissible per-node heuristic to
//!    the destination, and frontier edges are pushed as lazily-priced
//!    *candidates* at `g + lb(edge) + h(head)`: a candidate whose bound
//!    already exceeds the best known route cost is discarded without ever
//!    touching the oracle. Bounds are cached per corridor class
//!    ([`RouteConfig::lb_cache_capacity`]).
//! 2. **Edge-plan memoization.** Full oracle results are keyed on the
//!    (corridor signature, departure bin) class, so routes sharing segment
//!    classes — and repeated queries — reuse plans outright, and all
//!    solves share the warm transition-table memo through the router's
//!    [`SolverArena`]s.
//! 3. **Batched frontier evaluation.** When several uncached candidates
//!    sit at the top of the frontier, they are solved in one
//!    [`DpOptimizer::optimize_batch_with`] call on the existing thread
//!    team instead of serially ([`RouteConfig::batch_frontier`]).
//!
//! ## The route model
//!
//! Search states are `(junction, departure bin)`: departure times are
//! quantized to [`RouteConfig::depart_quantum`], and a vehicle arriving at
//! a junction departs on the next bin boundary (`ceil`), waiting at rest
//! in between. Each edge is solved on its own relative clock — the edge's
//! signal green windows are computed from the absolute departure time and
//! shifted to the solve's `t = 0` — so long routes never exhaust the DP
//! horizon. Waiting at a junction is free; the time cost of *driving* is
//! priced by the solver's blended objective.
//!
//! ## Exactness
//!
//! The search is label-correcting (edge costs can be negative), runs to
//! frontier exhaustion, prunes only entries strictly costlier than the
//! best route found, and breaks exact cost ties toward the
//! lexicographically smallest edge-id sequence. Under the route model
//! above it returns the *exact* optimum — bit-identical route, cost, and
//! stitched profile versus exhaustive path enumeration, at any thread
//! count, with every cache and the batched frontier on or off (proptested
//! in `tests/route.rs`; see DESIGN.md §15 for the admissibility and
//! fixed-point arguments). Graphs whose true edge costs admit a
//! negative-cost cycle are rejected during the heuristic sweep.

use crate::batch::PlanRequest;
use crate::dp::{
    DpOptimizer, EdgeBound, OptimizedProfile, SignalConstraint, SolverArena, StartState,
};
use crate::par;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use velopt_common::units::{AmpereHours, Meters, MetersPerSecond, Seconds};
use velopt_common::{Error, Result};
use velopt_queue::TimeWindow;
use velopt_road::{EdgeId, NodeId, Road, RoadGraph};

/// Router knobs. Every knob is a work/throughput trade-off only — the
/// returned route and profile are bit-identical for every setting (see the
/// module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteConfig {
    /// Departure-time quantum at junctions: arrivals round up to the next
    /// multiple before the next edge departs. Coarser bins mean more plan
    /// sharing across queries; finer bins mean less junction waiting.
    pub depart_quantum: Seconds,
    /// Use the admissible `emin` lower bounds and best-first candidate
    /// pruning (default `true`). With `false` the router degrades to
    /// lower-bound-free Dijkstra that prices every frontier edge through
    /// the oracle — the baseline the `route_plan` bench compares against.
    pub heuristic: bool,
    /// Memoize full edge plans on the (corridor class, departure bin) key,
    /// across edges and across queries (default `true`).
    pub memo: bool,
    /// Solve consecutive uncached frontier candidates in one batched
    /// oracle call instead of one at a time (default `true`).
    pub batch_frontier: bool,
    /// Most candidates evaluated per batched flush.
    pub batch_width: usize,
    /// Most corridor classes kept in the lower-bound cache; once full, new
    /// classes are bounded on demand without eviction. `0` disables the
    /// cache.
    pub lb_cache_capacity: usize,
    /// Hard cap on search labels, a safety net against pathological
    /// graphs (e.g. a true negative-cost cycle that slipped past the
    /// bound check).
    pub max_states: usize,
}

impl Default for RouteConfig {
    fn default() -> Self {
        Self {
            depart_quantum: Seconds::new(1.0),
            heuristic: true,
            memo: true,
            batch_frontier: true,
            batch_width: 16,
            lb_cache_capacity: 1024,
            max_states: 1 << 20,
        }
    }
}

impl RouteConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] on a non-positive quantum, a zero
    /// batch width, or a zero state cap.
    pub fn validated(self) -> Result<Self> {
        if self.depart_quantum.value() <= 0.0 {
            return Err(Error::invalid_input("departure quantum must be positive"));
        }
        if self.batch_width == 0 {
            return Err(Error::invalid_input("batch width must be at least 1"));
        }
        if self.max_states == 0 {
            return Err(Error::invalid_input("max states must be at least 1"));
        }
        Ok(self)
    }
}

/// Work counters for one routing query, in the same observability-only
/// spirit as [`crate::metrics::SolverMetrics`]: two plans that differ only
/// in metrics compare equal.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouteMetrics {
    /// Search labels settled (state expansions).
    pub states_settled: u64,
    /// Out-edges considered during state expansions.
    pub edges_expanded: u64,
    /// Edge traversals discarded on their lower bound alone — before, or
    /// instead of, an oracle evaluation.
    pub edges_pruned: u64,
    /// Full DP solves requested from the oracle.
    pub oracle_calls: u64,
    /// Edge traversals priced from the (corridor class, departure bin)
    /// plan memo without touching the oracle.
    pub plan_memo_hits: u64,
    /// Edge lower bounds served from the per-class cache.
    pub lb_cache_hits: u64,
    /// Edge lower bounds computed with a fresh `emin` sweep.
    pub lb_cache_misses: u64,
}

impl RouteMetrics {
    /// Fraction of lower-bound lookups served from the cache, in
    /// `[0, 1]`; `1.0` when no bounds were needed.
    pub fn lb_cache_hit_rate(&self) -> f64 {
        let total = self.lb_cache_hits + self.lb_cache_misses;
        if total == 0 {
            return 1.0;
        }
        self.lb_cache_hits as f64 / total as f64
    }

    /// Publishes the query's counters to the global [`telemetry`] registry
    /// under the `route.*` namespace. A no-op (and free) unless the
    /// crate's `telemetry` feature is enabled.
    pub fn publish(&self) {
        telemetry::add("route.plans", 1);
        telemetry::add("route.states_settled", self.states_settled);
        telemetry::add("route.edges_expanded", self.edges_expanded);
        telemetry::add("route.edges_pruned", self.edges_pruned);
        telemetry::add("route.oracle_calls", self.oracle_calls);
        telemetry::add("route.plan_memo.hits", self.plan_memo_hits);
        telemetry::add("route.lb_cache.hits", self.lb_cache_hits);
        telemetry::add("route.lb_cache.misses", self.lb_cache_misses);
    }

    /// Accumulates another query's counters into this one.
    pub fn absorb(&mut self, other: &RouteMetrics) {
        self.states_settled += other.states_settled;
        self.edges_expanded += other.edges_expanded;
        self.edges_pruned += other.edges_pruned;
        self.oracle_calls += other.oracle_calls;
        self.plan_memo_hits += other.plan_memo_hits;
        self.lb_cache_hits += other.lb_cache_hits;
        self.lb_cache_misses += other.lb_cache_misses;
    }
}

/// One routing query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteQuery {
    /// Starting junction.
    pub origin: NodeId,
    /// Destination junction.
    pub dest: NodeId,
    /// Earliest departure time (absolute clock; snaps up to the departure
    /// quantum).
    pub depart: Seconds,
}

/// The routed result: the edge sequence, its exact blended cost, and the
/// stitched velocity profile over the whole route.
///
/// The profile concatenates each edge's optimized profile with stations
/// offset by the cumulative route length and times on the absolute clock;
/// junction waits appear as repeated positions at rest. Equality ignores
/// [`metrics`](RoutePlan::metrics), like
/// [`OptimizedProfile`] does.
#[derive(Debug, Clone)]
pub struct RoutePlan {
    /// The edges driven, in order.
    pub edges: Vec<EdgeId>,
    /// Exact blended objective of the route (`charge +
    /// time_weight·duration + M·violations`, summed over edges in path
    /// order).
    pub cost: f64,
    /// Net battery charge over the route.
    pub total_energy: AmpereHours,
    /// Snapped departure time at the origin.
    pub depart: Seconds,
    /// Arrival time at the destination (absolute clock).
    pub arrival: Seconds,
    /// Signal stations arrived outside every window, summed over edges.
    pub window_violations: usize,
    /// Stitched station positions (cumulative route distance).
    pub stations: Vec<Meters>,
    /// Speed at each stitched station.
    pub speeds: Vec<MetersPerSecond>,
    /// Arrival time at each stitched station (absolute clock).
    pub times: Vec<Seconds>,
    /// How the router got here. Excluded from equality.
    pub metrics: RouteMetrics,
}

impl PartialEq for RoutePlan {
    fn eq(&self, other: &Self) -> bool {
        self.edges == other.edges
            && self.cost == other.cost
            && self.total_energy == other.total_energy
            && self.depart == other.depart
            && self.arrival == other.arrival
            && self.window_violations == other.window_violations
            && self.stations == other.stations
            && self.speeds == other.speeds
            && self.times == other.times
    }
}

impl RoutePlan {
    /// Route duration from snapped departure to arrival (driving plus
    /// junction waits).
    pub fn trip_time(&self) -> Seconds {
        self.arrival - self.depart
    }
}

/// A memoized oracle evaluation of one (corridor class, departure bin).
#[derive(Debug)]
struct PlanEval {
    /// Blended edge cost (see [`blended_cost`]).
    cost: f64,
    /// The solved profile, on the edge's relative clock.
    profile: OptimizedProfile,
}

/// The blended routing objective of one solved edge profile. Shared by
/// the router and the enumeration reference so both accumulate identical
/// floats.
pub fn blended_cost(profile: &OptimizedProfile, time_weight: f64, penalty_m: f64) -> f64 {
    profile.total_energy.value()
        + time_weight * profile.trip_time.value()
        + penalty_m * profile.window_violations as f64
}

/// Departure bin of a time: the first multiple of `quantum` at or after
/// `t`.
pub fn depart_bin(t: Seconds, quantum: Seconds) -> u64 {
    let b = (t.value() / quantum.value()).ceil();
    if b <= 0.0 {
        0
    } else {
        b as u64
    }
}

/// A collision-resistant fingerprint of everything an edge plan depends on
/// besides the departure time: corridor length, default and zoned speed
/// limits, stop signs, grade knots, and each light's timing *and realized
/// green pattern over one cycle*. Two edges with equal signatures price
/// identically at equal departure bins, which is the plan memo's key.
pub fn road_signature(road: &Road) -> u64 {
    let mut scratch = Vec::new();
    road_signature_with(road, &mut scratch)
}

/// [`road_signature`] with a caller-owned green-window scratch buffer, so
/// hashing a whole frontier stays allocation-free.
pub fn road_signature_with(road: &Road, scratch: &mut Vec<(Seconds, Seconds)>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mix = |h: &mut u64, bits: u64| {
        *h ^= bits;
        *h = h.wrapping_mul(0x100_0000_01b3);
    };
    mix(&mut h, road.length().value().to_bits());
    let (dmin, dmax) = road.default_limits();
    mix(&mut h, dmin.value().to_bits());
    mix(&mut h, dmax.value().to_bits());
    for z in road.speed_zones() {
        mix(&mut h, z.start.value().to_bits());
        mix(&mut h, z.end.value().to_bits());
        mix(&mut h, z.min.value().to_bits());
        mix(&mut h, z.max.value().to_bits());
    }
    for s in road.stop_signs() {
        mix(&mut h, s.position.value().to_bits());
    }
    for &(x, g) in road.grade_percent_profile().knots() {
        mix(&mut h, x.to_bits());
        mix(&mut h, g.to_bits());
    }
    for light in road.traffic_lights() {
        mix(&mut h, light.position().value().to_bits());
        mix(&mut h, light.red().value().to_bits());
        mix(&mut h, light.green().value().to_bits());
        mix(&mut h, light.offset().value().to_bits());
        light.green_windows_into(Seconds::ZERO, light.cycle(), scratch);
        for &(s, e) in scratch.iter() {
            mix(&mut h, s.value().to_bits());
            mix(&mut h, e.value().to_bits());
        }
    }
    h
}

/// The signal constraints an edge solve sees when the vehicle departs at
/// absolute time `depart`: each light's green windows over the horizon,
/// shifted onto the edge's relative clock.
fn edge_constraints(
    road: &Road,
    depart: Seconds,
    horizon: Seconds,
    scratch: &mut Vec<(Seconds, Seconds)>,
) -> Vec<SignalConstraint> {
    road.traffic_lights()
        .iter()
        .map(|light| {
            light.green_windows_into(depart, horizon, scratch);
            SignalConstraint {
                position: light.position(),
                windows: scratch
                    .iter()
                    .map(|&(s, e)| TimeWindow {
                        start: s - depart,
                        end: e - depart,
                    })
                    .collect(),
            }
        })
        .collect()
}

/// One search label: the cheapest known way to stand at `node` ready to
/// depart on bin `bin`.
#[derive(Debug, Clone)]
struct Label {
    node: u32,
    bin: u64,
    cost: f64,
    /// `(predecessor label, edge driven, its evaluation)` — `None` at the
    /// origin. The evaluation rides along so the final stitch never
    /// re-solves (or re-fetches) anything.
    parent: Option<(usize, u32, Arc<PlanEval>)>,
}

/// What a frontier entry asks for when popped.
#[derive(Debug, Clone, Copy)]
enum Work {
    /// Expand a settled label's out-edges.
    Expand { state: usize },
    /// Price one lazily-bounded edge traversal through the oracle.
    Candidate { from: usize, edge: u32 },
}

/// Min-heap item ordered by `f`, then FIFO by insertion sequence so equal
/// keys pop in a well-defined order.
#[derive(Debug, Clone, Copy)]
struct HeapItem {
    f: f64,
    seq: u64,
    /// The `g` of the owning label when pushed; a mismatch on pop marks
    /// the entry stale (the label has since improved and re-pushed).
    g_bits: u64,
    work: Work,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.f.total_cmp(&other.f).is_eq() && self.seq == other.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap pops the max, we want the smallest f (and
        // among equals, the earliest push).
        other
            .f
            .total_cmp(&self.f)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The best-first router. Owns the DP oracle, the per-class lower-bound
/// cache, the (class, departure-bin) plan memo, and one [`SolverArena`]
/// per oracle worker, so everything warm — layer buffers, transition
/// tables, edge plans — persists across queries.
#[derive(Debug)]
pub struct Router {
    optimizer: DpOptimizer,
    config: RouteConfig,
    arenas: Vec<SolverArena>,
    lb_cache: HashMap<u64, EdgeBound>,
    plans: HashMap<(u64, u64), Option<Arc<PlanEval>>>,
    scratch: Vec<(Seconds, Seconds)>,
}

impl Router {
    /// Creates a router around a DP oracle.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if the route configuration is
    /// invalid.
    pub fn new(optimizer: DpOptimizer, config: RouteConfig) -> Result<Self> {
        let config = config.validated()?;
        let workers = par::effective_threads(optimizer.config().threads).max(1);
        Ok(Self {
            optimizer,
            config,
            arenas: (0..workers).map(|_| SolverArena::new()).collect(),
            lb_cache: HashMap::new(),
            plans: HashMap::new(),
            scratch: Vec::new(),
        })
    }

    /// The route configuration in use.
    pub fn config(&self) -> &RouteConfig {
        &self.config
    }

    /// The DP oracle in use.
    pub fn optimizer(&self) -> &DpOptimizer {
        &self.optimizer
    }

    /// Number of (corridor class, departure bin) plans currently memoized.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// Number of corridor classes in the lower-bound cache.
    pub fn cached_bounds(&self) -> usize {
        self.lb_cache.len()
    }

    /// Plans the exact energy-optimal route for `query`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] on out-of-range junctions, equal
    /// origin and destination, a negative or non-finite departure time, or
    /// a graph whose edge lower bounds admit a negative-cost cycle, and
    /// [`Error::Infeasible`] when no feasible route exists (or the search
    /// exceeded [`RouteConfig::max_states`]).
    pub fn plan(&mut self, graph: &RoadGraph, query: RouteQuery) -> Result<RoutePlan> {
        let _route_span = telemetry::span("route.plan_seconds");
        if query.origin.index() >= graph.node_count() || query.dest.index() >= graph.node_count() {
            return Err(Error::invalid_input("query junction out of range"));
        }
        if query.origin == query.dest {
            return Err(Error::invalid_input(
                "origin equals destination; nothing to route",
            ));
        }
        let depart = query.depart.value();
        if !(depart.is_finite() && depart >= 0.0) {
            return Err(Error::invalid_input(
                "departure time must be finite and non-negative",
            ));
        }
        let mut metrics = RouteMetrics::default();
        let tw = self.optimizer.config().time_weight;

        // Corridor class per edge, hashed once per query.
        let sigs: Vec<u64> = graph
            .edges()
            .iter()
            .map(|e| road_signature_with(e.road(), &mut self.scratch))
            .collect();

        // Junctions that can reach the destination at all (pure topology).
        // Out-edges into the rest of the graph are never worth expanding,
        // and skipping them keeps the search finite when the destination
        // is unreachable.
        let reach = reachable_to(graph, query.dest);
        if !reach[query.origin.index()] {
            return Err(Error::infeasible(
                "destination is not reachable from the origin",
            ));
        }

        // Admissible per-junction heuristic from the edge lower bounds.
        let h: Vec<f64> = if self.config.heuristic {
            self.heuristic(graph, query.dest, &sigs, &mut metrics)?
        } else {
            vec![0.0; graph.node_count()]
        };

        // ---- label-correcting best-first search ----
        let q = self.config.depart_quantum;
        let start_bin = depart_bin(query.depart, q);
        let mut states: Vec<Label> = vec![Label {
            node: query.origin.0,
            bin: start_bin,
            cost: 0.0,
            parent: None,
        }];
        let mut index: HashMap<(u32, u64), usize> = HashMap::new();
        index.insert((query.origin.0, start_bin), 0);
        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
        let mut seq: u64 = 0;
        let mut best: Option<f64> = None;
        heap.push(HeapItem {
            f: h[query.origin.index()],
            seq,
            g_bits: 0.0_f64.to_bits(),
            work: Work::Expand { state: 0 },
        });

        while let Some(item) = heap.pop() {
            // Everything still queued costs at least `item.f`; once that
            // strictly exceeds the best route, the rest is unreachable
            // improvement-wise. Entries *equal* to the best must still be
            // processed for the lexicographic tie-break.
            if best.is_some_and(|b| item.f > b) {
                if matches!(item.work, Work::Candidate { .. }) {
                    metrics.edges_pruned += 1;
                }
                for rest in heap.drain() {
                    if matches!(rest.work, Work::Candidate { .. }) {
                        metrics.edges_pruned += 1;
                    }
                }
                break;
            }
            match item.work {
                Work::Expand { state } => {
                    if states[state].cost.to_bits() != item.g_bits {
                        continue; // superseded label; a fresher entry exists
                    }
                    metrics.states_settled += 1;
                    let g = states[state].cost;
                    let node = NodeId(states[state].node);
                    let mut eager: Vec<(usize, u32)> = Vec::new();
                    for &eid in graph.out_edges(node) {
                        let e = graph.edge(eid);
                        if !reach[e.to().index()] {
                            continue;
                        }
                        metrics.edges_expanded += 1;
                        if self.config.heuristic {
                            let lb = self
                                .edge_lb(sigs[eid.index()], e.road(), &mut metrics)?
                                .cost_floor(tw);
                            let f = g + lb + h[e.to().index()];
                            if f.is_infinite() || best.is_some_and(|b| f > b) {
                                metrics.edges_pruned += 1;
                                continue;
                            }
                            seq += 1;
                            heap.push(HeapItem {
                                f,
                                seq,
                                g_bits: g.to_bits(),
                                work: Work::Candidate {
                                    from: state,
                                    edge: eid.0,
                                },
                            });
                        } else {
                            // Lower-bound-free mode: price every out-edge
                            // through the oracle right now, like Dijkstra
                            // relaxing all successors on expansion.
                            eager.push((state, eid.0));
                        }
                    }
                    if !eager.is_empty() {
                        self.evaluate_and_relax(
                            graph,
                            &sigs,
                            eager,
                            &mut states,
                            &mut index,
                            &mut heap,
                            &mut seq,
                            &mut best,
                            &h,
                            query.dest,
                            &mut metrics,
                        )?;
                    }
                }
                Work::Candidate { from, edge } => {
                    if states[from].cost.to_bits() != item.g_bits {
                        continue; // superseded; the improved label re-pushed
                    }
                    let mut batch = vec![(from, edge)];
                    if self.config.batch_frontier {
                        while batch.len() < self.config.batch_width {
                            let Some(top) = heap.peek() else { break };
                            let (Work::Candidate { from, edge }, f, g_bits) =
                                (top.work, top.f, top.g_bits)
                            else {
                                break;
                            };
                            if best.is_some_and(|b| f > b) {
                                break; // will be drained as pruned later
                            }
                            heap.pop();
                            if states[from].cost.to_bits() != g_bits {
                                continue;
                            }
                            batch.push((from, edge));
                        }
                    }
                    self.evaluate_and_relax(
                        graph,
                        &sigs,
                        batch,
                        &mut states,
                        &mut index,
                        &mut heap,
                        &mut seq,
                        &mut best,
                        &h,
                        query.dest,
                        &mut metrics,
                    )?;
                }
            }
            if states.len() > self.config.max_states {
                return Err(Error::infeasible(format!(
                    "route search exceeded {} labels; is the graph free of negative-cost cycles?",
                    self.config.max_states
                )));
            }
        }

        // The best destination label, ties toward the lexicographically
        // smallest edge sequence (the search maintained exactly that).
        let best_state = states
            .iter()
            .enumerate()
            .filter(|(_, l)| l.node == query.dest.0)
            .min_by(|(i, a), (j, b)| {
                a.cost
                    .total_cmp(&b.cost)
                    .then_with(|| path_edges(&states, *i).cmp(&path_edges(&states, *j)))
            })
            .map(|(i, _)| i);
        let Some(best_state) = best_state else {
            return Err(Error::infeasible("no feasible route to the destination"));
        };
        let plan = self.stitch(&states, best_state, start_bin, metrics);
        plan.metrics.publish();
        Ok(plan)
    }

    /// Prices a fixed edge sequence under the same route model, oracle,
    /// and caches as [`plan`](Self::plan) — the reference the exactness
    /// proptests enumerate with, and a way to re-quote a known route.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if the edges do not form a
    /// connected path, and [`Error::Infeasible`] if any edge has no
    /// feasible profile at its departure bin.
    pub fn price_path(
        &mut self,
        graph: &RoadGraph,
        edges: &[EdgeId],
        depart: Seconds,
    ) -> Result<RoutePlan> {
        if edges.is_empty() {
            return Err(Error::invalid_input("a route needs at least one edge"));
        }
        for w in edges.windows(2) {
            if graph.edge(w[0]).to() != graph.edge(w[1]).from() {
                return Err(Error::invalid_input("edges do not form a connected path"));
            }
        }
        let mut metrics = RouteMetrics::default();
        let q = self.config.depart_quantum;
        let start_bin = depart_bin(depart, q);
        let mut states: Vec<Label> = vec![Label {
            node: graph.edge(edges[0]).from().0,
            bin: start_bin,
            cost: 0.0,
            parent: None,
        }];
        for &eid in edges {
            let e = graph.edge(eid);
            let from = states.len() - 1;
            let sig = road_signature_with(e.road(), &mut self.scratch);
            let bin = states[from].bin;
            let eval = self.evaluate_edge(e.road(), sig, bin, &mut metrics)?;
            let Some(eval) = eval else {
                return Err(Error::infeasible(format!(
                    "edge {} has no feasible profile at bin {bin}",
                    eid.0
                )));
            };
            let arrival = Seconds::new(bin as f64 * q.value()) + eval.profile.trip_time;
            let cost = states[from].cost + eval.cost;
            states.push(Label {
                node: e.to().0,
                bin: depart_bin(arrival, q),
                cost,
                parent: Some((from, eid.0, eval)),
            });
        }
        let last = states.len() - 1;
        let plan = self.stitch(&states, last, start_bin, metrics);
        plan.metrics.publish();
        Ok(plan)
    }

    /// The lower bound for one corridor class, through the capacity-bound
    /// per-class cache.
    fn edge_lb(&mut self, sig: u64, road: &Road, metrics: &mut RouteMetrics) -> Result<EdgeBound> {
        if let Some(b) = self.lb_cache.get(&sig) {
            metrics.lb_cache_hits += 1;
            return Ok(*b);
        }
        metrics.lb_cache_misses += 1;
        let bound = self.optimizer.edge_bound_with(road, &mut self.arenas[0])?;
        if self.lb_cache.len() < self.config.lb_cache_capacity {
            self.lb_cache.insert(sig, bound);
        }
        Ok(bound)
    }

    /// Admissible cost-to-destination per junction: a Bellman–Ford sweep
    /// of the edge lower bounds over the reversed graph (lower bounds can
    /// be negative on net regenerative corridors, so Dijkstra would be
    /// wrong here).
    fn heuristic(
        &mut self,
        graph: &RoadGraph,
        dest: NodeId,
        sigs: &[u64],
        metrics: &mut RouteMetrics,
    ) -> Result<Vec<f64>> {
        let tw = self.optimizer.config().time_weight;
        let mut lb = Vec::with_capacity(graph.edge_count());
        for (e, &sig) in graph.edges().iter().zip(sigs) {
            lb.push(self.edge_lb(sig, e.road(), metrics)?.cost_floor(tw));
        }
        let n = graph.node_count();
        let mut h = vec![f64::INFINITY; n];
        h[dest.index()] = 0.0;
        for _ in 0..n.saturating_sub(1) {
            let mut changed = false;
            for (e, &w) in graph.edges().iter().zip(&lb) {
                if !h[e.to().index()].is_finite() || !w.is_finite() {
                    continue;
                }
                let cand = w + h[e.to().index()];
                if cand < h[e.from().index()] {
                    h[e.from().index()] = cand;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (e, &w) in graph.edges().iter().zip(&lb) {
            if h[e.to().index()].is_finite()
                && w.is_finite()
                && w + h[e.to().index()] < h[e.from().index()]
            {
                return Err(Error::invalid_input(
                    "edge lower bounds admit a negative-cost cycle; routing is ill-posed",
                ));
            }
        }
        Ok(h)
    }

    /// Prices one edge at one departure bin: plan-memo lookup, then the
    /// oracle. `Ok(None)` means the oracle proved the edge infeasible at
    /// this bin (and that, too, is memoized).
    fn evaluate_edge(
        &mut self,
        road: &Road,
        sig: u64,
        bin: u64,
        metrics: &mut RouteMetrics,
    ) -> Result<Option<Arc<PlanEval>>> {
        if self.config.memo {
            if let Some(hit) = self.plans.get(&(sig, bin)) {
                metrics.plan_memo_hits += 1;
                return Ok(hit.clone());
            }
        }
        metrics.oracle_calls += 1;
        let cfg = self.optimizer.config();
        let (tw, pm, horizon) = (cfg.time_weight, cfg.penalty_m, cfg.horizon);
        let depart = Seconds::new(bin as f64 * self.config.depart_quantum.value());
        let signals = edge_constraints(road, depart, horizon, &mut self.scratch);
        let solved = self.optimizer.optimize_from_with(
            road,
            &signals,
            StartState::default(),
            &mut self.arenas[0],
        );
        let eval = match solved {
            Ok(profile) => Some(Arc::new(PlanEval {
                cost: blended_cost(&profile, tw, pm),
                profile,
            })),
            Err(_) => None,
        };
        if self.config.memo {
            self.plans.insert((sig, bin), eval.clone());
        }
        Ok(eval)
    }

    /// Prices a batch of `(label, edge)` traversals — memo hits directly,
    /// the rest through one batched oracle call — and relaxes each result
    /// into the label set, in batch order.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_and_relax(
        &mut self,
        graph: &RoadGraph,
        sigs: &[u64],
        batch: Vec<(usize, u32)>,
        states: &mut Vec<Label>,
        index: &mut HashMap<(u32, u64), usize>,
        heap: &mut BinaryHeap<HeapItem>,
        seq: &mut u64,
        best: &mut Option<f64>,
        h: &[f64],
        dest: NodeId,
        metrics: &mut RouteMetrics,
    ) -> Result<()> {
        // Resolve memo hits; collect the oracle work. With memoization on,
        // duplicate (class, bin) keys inside one batch collapse to a
        // single request.
        let cfg = self.optimizer.config();
        let (tw, pm, horizon) = (cfg.time_weight, cfg.penalty_m, cfg.horizon);
        let q = self.config.depart_quantum.value();
        let mut resolved: Vec<Option<Arc<PlanEval>>> = vec![None; batch.len()];
        let mut todo: Vec<usize> = Vec::new(); // indices into `batch`
        let mut request_of: Vec<usize> = vec![usize::MAX; batch.len()];
        let mut key_to_request: HashMap<(u64, u64), usize> = HashMap::new();
        for (i, &(from, edge)) in batch.iter().enumerate() {
            let key = (sigs[edge as usize], states[from].bin);
            if self.config.memo {
                if let Some(hit) = self.plans.get(&key) {
                    metrics.plan_memo_hits += 1;
                    resolved[i] = hit.clone();
                    request_of[i] = usize::MAX;
                    continue;
                }
                if let Some(&r) = key_to_request.get(&key) {
                    request_of[i] = r;
                    continue;
                }
                key_to_request.insert(key, todo.len());
            }
            request_of[i] = todo.len();
            todo.push(i);
        }

        if !todo.is_empty() {
            metrics.oracle_calls += todo.len() as u64;
            let signal_sets: Vec<Vec<SignalConstraint>> = todo
                .iter()
                .map(|&i| {
                    let (from, edge) = batch[i];
                    let road = graph.edge(EdgeId(edge)).road();
                    let depart = Seconds::new(states[from].bin as f64 * q);
                    edge_constraints(road, depart, horizon, &mut self.scratch)
                })
                .collect();
            let requests: Vec<PlanRequest<'_>> = todo
                .iter()
                .zip(&signal_sets)
                .map(|(&i, signals)| PlanRequest {
                    road: graph.edge(EdgeId(batch[i].1)).road(),
                    signals,
                    start: StartState::default(),
                })
                .collect();
            let results = self
                .optimizer
                .optimize_batch_with(&requests, &mut self.arenas);
            let evals: Vec<Option<Arc<PlanEval>>> = results
                .into_iter()
                .map(|r| {
                    r.ok().map(|profile| {
                        Arc::new(PlanEval {
                            cost: blended_cost(&profile, tw, pm),
                            profile,
                        })
                    })
                })
                .collect();
            if self.config.memo {
                for (&i, eval) in todo.iter().zip(&evals) {
                    let (from, edge) = batch[i];
                    let key = (sigs[edge as usize], states[from].bin);
                    self.plans.insert(key, eval.clone());
                }
            }
            for (i, &r) in request_of.iter().enumerate() {
                if r != usize::MAX {
                    resolved[i] = evals[r].clone();
                }
            }
        }

        // Relax in batch order.
        for (&(from, edge), eval) in batch.iter().zip(resolved) {
            let Some(eval) = eval else { continue }; // infeasible edge/bin
            let e = graph.edge(EdgeId(edge));
            let bin = states[from].bin;
            let arrival = Seconds::new(bin as f64 * q) + eval.profile.trip_time;
            let next_bin = depart_bin(arrival, self.config.depart_quantum);
            let tentative = states[from].cost + eval.cost;
            let to = e.to();
            match index.get(&(to.0, next_bin)) {
                None => {
                    let idx = states.len();
                    states.push(Label {
                        node: to.0,
                        bin: next_bin,
                        cost: tentative,
                        parent: Some((from, edge, eval)),
                    });
                    index.insert((to.0, next_bin), idx);
                    if to == dest {
                        *best = Some(best.map_or(tentative, |b: f64| b.min(tentative)));
                    }
                    *seq += 1;
                    heap.push(HeapItem {
                        f: tentative + h[to.index()],
                        seq: *seq,
                        g_bits: tentative.to_bits(),
                        work: Work::Expand { state: idx },
                    });
                }
                Some(&idx) => {
                    let improved = tentative < states[idx].cost;
                    let tie = tentative == states[idx].cost && {
                        let mut cand = path_edges(states, from);
                        cand.push(edge);
                        cand < path_edges(states, idx)
                    };
                    if improved || tie {
                        states[idx].cost = tentative;
                        states[idx].parent = Some((from, edge, eval));
                        if improved && to == dest {
                            *best = Some(best.map_or(tentative, |b: f64| b.min(tentative)));
                        }
                        // Re-expand so downstream labels see the new cost
                        // (or the new, lexicographically smaller path).
                        *seq += 1;
                        heap.push(HeapItem {
                            f: tentative + h[to.index()],
                            seq: *seq,
                            g_bits: tentative.to_bits(),
                            work: Work::Expand { state: idx },
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Assembles the final [`RoutePlan`] by walking a destination label's
    /// parents and concatenating the stored edge profiles.
    fn stitch(
        &self,
        states: &[Label],
        dest_state: usize,
        start_bin: u64,
        metrics: RouteMetrics,
    ) -> RoutePlan {
        let q = self.config.depart_quantum.value();
        let mut chain: Vec<&Label> = Vec::new();
        let mut cur = dest_state;
        loop {
            chain.push(&states[cur]);
            match &states[cur].parent {
                Some((prev, _, _)) => cur = *prev,
                None => break,
            }
        }
        chain.reverse();

        let mut edges = Vec::with_capacity(chain.len() - 1);
        let mut stations: Vec<Meters> = Vec::new();
        let mut speeds: Vec<MetersPerSecond> = Vec::new();
        let mut times: Vec<Seconds> = Vec::new();
        let mut offset = 0.0f64;
        let mut total_energy = 0.0f64;
        let mut violations = 0usize;
        let mut arrival = Seconds::new(start_bin as f64 * q);
        for label in chain.iter().skip(1) {
            let (prev, edge, eval) = label.parent.as_ref().expect("non-origin label");
            let depart = Seconds::new(states[*prev].bin as f64 * q);
            edges.push(EdgeId(*edge));
            let p = &eval.profile;
            for i in 0..p.stations.len() {
                let t = depart + p.times[i];
                if i == 0 {
                    // Skip the duplicate junction sample unless the
                    // vehicle actually waited there.
                    if let Some(&last) = times.last() {
                        if t == last {
                            continue;
                        }
                    }
                }
                stations.push(Meters::new(offset + p.stations[i].value()));
                speeds.push(p.speeds[i]);
                times.push(t);
            }
            offset += p.stations.last().expect("non-empty profile").value();
            total_energy += p.total_energy.value();
            violations += p.window_violations;
            arrival = depart + p.trip_time;
        }
        RoutePlan {
            edges,
            cost: states[dest_state].cost,
            total_energy: AmpereHours::new(total_energy),
            depart: Seconds::new(start_bin as f64 * q),
            arrival,
            window_violations: violations,
            stations,
            speeds,
            times,
            metrics,
        }
    }
}

/// The edge-id sequence of a label's path from the origin.
fn path_edges(states: &[Label], mut idx: usize) -> Vec<u32> {
    let mut rev = Vec::new();
    while let Some((prev, edge, _)) = &states[idx].parent {
        rev.push(*edge);
        idx = *prev;
    }
    rev.reverse();
    rev
}

/// Junctions from which `dest` is reachable (reverse BFS over topology).
fn reachable_to(graph: &RoadGraph, dest: NodeId) -> Vec<bool> {
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); graph.node_count()];
    for e in graph.edges() {
        rev[e.to().index()].push(e.from().0);
    }
    let mut reach = vec![false; graph.node_count()];
    reach[dest.index()] = true;
    let mut queue = vec![dest.0];
    while let Some(n) = queue.pop() {
        for &p in &rev[n as usize] {
            if !reach[p as usize] {
                reach[p as usize] = true;
                queue.push(p);
            }
        }
    }
    reach
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::DpConfig;
    use velopt_ev_energy::{EnergyModel, VehicleParams};
    use velopt_road::{CorridorTemplate, NetworkTemplate};

    fn small_template() -> CorridorTemplate {
        CorridorTemplate {
            length: (200.0, 400.0),
            lights: (0, 1),
            phase: (15.0, 25.0),
            stop_sign_probability: 0.3,
            max_grade_percent: 0.0,
            limits_kmh: (30.0, 50.0),
        }
    }

    fn router(threads: usize, config: RouteConfig) -> Router {
        let optimizer = DpOptimizer::new(
            EnergyModel::new(VehicleParams::spark_ev()),
            DpConfig {
                horizon: Seconds::new(300.0),
                threads,
                ..DpConfig::default()
            },
        )
        .unwrap();
        Router::new(optimizer, config).unwrap()
    }

    fn grid(rows: usize, cols: usize, seed: u64) -> RoadGraph {
        NetworkTemplate {
            rows,
            cols,
            corridor: small_template(),
            corridor_pool: 2,
        }
        .generate(seed)
        .unwrap()
    }

    #[test]
    fn routes_across_a_grid() {
        let graph = grid(2, 3, 9);
        let mut r = router(1, RouteConfig::default());
        let query = RouteQuery {
            origin: NodeId(0),
            dest: NodeId(5),
            depart: Seconds::ZERO,
        };
        let plan = r.plan(&graph, query).unwrap();
        assert!(!plan.edges.is_empty());
        assert_eq!(graph.edge(plan.edges[0]).from(), NodeId(0));
        assert_eq!(graph.edge(*plan.edges.last().unwrap()).to(), NodeId(5));
        for w in plan.edges.windows(2) {
            assert_eq!(graph.edge(w[0]).to(), graph.edge(w[1]).from());
        }
        // The stitched profile is monotone in time and position and starts
        // and ends at rest.
        assert!(plan.times.windows(2).all(|w| w[0] <= w[1]));
        assert!(plan.stations.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(plan.speeds[0], MetersPerSecond::ZERO);
        assert_eq!(*plan.speeds.last().unwrap(), MetersPerSecond::ZERO);
        assert!(plan.metrics.oracle_calls > 0);
        // And the plan agrees with pricing its own path.
        let priced = r.price_path(&graph, &plan.edges, query.depart).unwrap();
        assert_eq!(priced, plan);
    }

    #[test]
    fn memo_serves_repeat_queries() {
        let graph = grid(2, 2, 4);
        let mut r = router(1, RouteConfig::default());
        let query = RouteQuery {
            origin: NodeId(0),
            dest: NodeId(3),
            depart: Seconds::ZERO,
        };
        let first = r.plan(&graph, query).unwrap();
        assert!(first.metrics.oracle_calls > 0);
        let second = r.plan(&graph, query).unwrap();
        assert_eq!(second, first);
        assert_eq!(second.metrics.oracle_calls, 0, "{:?}", second.metrics);
        assert!(second.metrics.plan_memo_hits > 0);
        assert_eq!(second.metrics.lb_cache_misses, 0);
    }

    #[test]
    fn heuristic_cuts_oracle_calls() {
        let graph = grid(3, 3, 7);
        let query = RouteQuery {
            origin: NodeId(0),
            dest: NodeId(8),
            depart: Seconds::ZERO,
        };
        let mut astar = router(1, RouteConfig::default());
        let with = astar.plan(&graph, query).unwrap();
        let mut dijkstra = router(
            1,
            RouteConfig {
                heuristic: false,
                ..RouteConfig::default()
            },
        );
        let without = dijkstra.plan(&graph, query).unwrap();
        assert_eq!(with, without);
        assert!(
            with.metrics.oracle_calls < without.metrics.oracle_calls,
            "A* {} vs Dijkstra {}",
            with.metrics.oracle_calls,
            without.metrics.oracle_calls
        );
        assert!(with.metrics.edges_pruned > 0);
    }

    #[test]
    fn unreachable_destination_is_infeasible() {
        // Two nodes, edge pointing the wrong way.
        let mut g = RoadGraph::new(2).unwrap();
        g.add_edge(NodeId(1), NodeId(0), Road::us25()).unwrap();
        let mut r = router(1, RouteConfig::default());
        let err = r
            .plan(
                &g,
                RouteQuery {
                    origin: NodeId(0),
                    dest: NodeId(1),
                    depart: Seconds::ZERO,
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("not reachable"), "{err}");
    }

    #[test]
    fn query_validation() {
        let graph = grid(2, 2, 1);
        let mut r = router(1, RouteConfig::default());
        assert!(r
            .plan(
                &graph,
                RouteQuery {
                    origin: NodeId(0),
                    dest: NodeId(0),
                    depart: Seconds::ZERO,
                }
            )
            .is_err());
        assert!(r
            .plan(
                &graph,
                RouteQuery {
                    origin: NodeId(0),
                    dest: NodeId(9),
                    depart: Seconds::ZERO,
                }
            )
            .is_err());
        for depart in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(r
                .plan(
                    &graph,
                    RouteQuery {
                        origin: NodeId(0),
                        dest: NodeId(3),
                        depart: Seconds::new(depart),
                    }
                )
                .is_err());
        }
    }

    #[test]
    fn config_validation() {
        assert!(RouteConfig {
            depart_quantum: Seconds::ZERO,
            ..RouteConfig::default()
        }
        .validated()
        .is_err());
        assert!(RouteConfig {
            batch_width: 0,
            ..RouteConfig::default()
        }
        .validated()
        .is_err());
    }

    #[test]
    fn edge_bound_is_admissible_for_solved_edges() {
        let graph = grid(2, 2, 11);
        let opt = DpOptimizer::new(
            EnergyModel::new(VehicleParams::spark_ev()),
            DpConfig {
                horizon: Seconds::new(300.0),
                threads: 1,
                ..DpConfig::default()
            },
        )
        .unwrap();
        let tw = opt.config().time_weight;
        let pm = opt.config().penalty_m;
        let mut scratch = Vec::new();
        for e in graph.edges() {
            let bound = opt.edge_bound(e.road()).unwrap();
            for bin in [0u64, 7, 31] {
                let depart = Seconds::new(bin as f64);
                let signals =
                    edge_constraints(e.road(), depart, opt.config().horizon, &mut scratch);
                let profile = opt.optimize(e.road(), &signals).unwrap();
                let cost = blended_cost(&profile, tw, pm);
                assert!(
                    bound.cost_floor(tw) <= cost + 1e-12,
                    "bound {} exceeds cost {} on edge {} bin {bin}",
                    bound.cost_floor(tw),
                    cost,
                    e.road().length()
                );
                assert!(bound.duration_floor <= profile.trip_time + Seconds::new(1e-9));
            }
        }
    }

    #[test]
    fn signature_distinguishes_features_and_is_stable() {
        let a = small_template().generate(1).unwrap();
        let b = small_template().generate(2).unwrap();
        assert_eq!(road_signature(&a), road_signature(&a));
        assert_ne!(road_signature(&a), road_signature(&b));
        let mut scratch = Vec::new();
        assert_eq!(road_signature(&a), road_signature_with(&a, &mut scratch));
    }

    #[test]
    fn depart_bin_rounds_up() {
        let q = Seconds::new(1.0);
        assert_eq!(depart_bin(Seconds::ZERO, q), 0);
        assert_eq!(depart_bin(Seconds::new(0.25), q), 1);
        assert_eq!(depart_bin(Seconds::new(3.0), q), 3);
        assert_eq!(depart_bin(Seconds::new(3.0001), q), 4);
    }
}
