//! Solver configuration and search statistics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use recopack_bounds::BoundKind;

use crate::live::LiveStats;
use crate::telemetry::Telemetry;

/// The per-job handle every search polls at its budget checkpoints: a
/// cooperative cancellation flag plus the job's [`LiveStats`].
///
/// Clone the token, hand one copy to [`SolverConfig::cancel`], keep the
/// other, and call [`cancel`](CancelToken::cancel) from any thread: every
/// worker of the search observes the flag at its regular budget checkpoints
/// (node entry and in-cascade polls) and unwinds with
/// [`SolveOutcome::ResourceLimit`](crate::SolveOutcome::ResourceLimit)`(`[`LimitKind::Cancelled`]`)`.
/// Cancellation is level-triggered and sticky: once cancelled, a token stays
/// cancelled, and every solve sharing it stops.
///
/// The kept copy also reads the job's progress: every search run under the
/// token publishes its counters into [`live`](CancelToken::live), which
/// accumulates across the searches of a multi-decision solve.
///
/// The default token is never cancelled and costs one relaxed atomic load
/// per budget check. Equality compares token *identity* (same shared
/// handle), which keeps [`SolverConfig`] `Eq` — two independently created
/// tokens are never equal, a token always equals its clones.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    shared: Arc<JobHandle>,
}

#[derive(Debug, Default)]
struct JobHandle {
    cancelled: AtomicBool,
    live: LiveStats,
}

impl CancelToken {
    /// A fresh, not-yet-cancelled token with zeroed live statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation: every search polling this token unwinds at
    /// its next budget checkpoint.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](CancelToken::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.shared.cancelled.load(Ordering::Relaxed)
    }

    /// The live statistics of every search run under this token.
    pub fn live(&self) -> &LiveStats {
        &self.shared.live
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }
}

impl Eq for CancelToken {}

/// Tunables of the packing-class search.
///
/// The per-rule toggles exist for the ablation experiments (DESIGN.md §4,
/// experiment A1): disabling a propagation rule never changes answers, only
/// the size of the search tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverConfig {
    /// Run the lower-bound battery before searching.
    pub use_bounds: bool,
    /// Run the list-scheduling heuristics before searching.
    pub use_heuristics: bool,
    /// Enable the C2 maximum-weight-clique rule during propagation.
    pub clique_rule: bool,
    /// Enable the induced-C4 rule during propagation.
    pub c4_rule: bool,
    /// Enable the D1/D2 orientation implications during propagation.
    pub orientation_rules: bool,
    /// Force pairs to overlap in dimensions where their sizes cannot be
    /// placed side by side (preprocessing).
    pub must_overlap_rule: bool,
    /// Give up after this many search nodes (`None` = unlimited).
    pub node_limit: Option<u64>,
    /// Give up after this much wall time (`None` = unlimited).
    pub time_limit: Option<Duration>,
    /// Branch on the component ("overlap") choice first. The default tries
    /// comparability (disjointness) first: feasible leaves are reached far
    /// faster, while exhaustive infeasibility proofs are order-insensitive.
    pub component_first: bool,
    /// Symmetry breaking for *twin* tasks (identical shape, identical
    /// precedence relations, no arc between them): when a twin pair is
    /// time-separated, the lower-id task goes first. Sound because swapping
    /// two twins maps feasible packings to feasible packings; automatically
    /// ignored for fixed-schedule problems (where task identities are
    /// pinned by the given start times).
    pub twin_symmetry: bool,
    /// Worker threads for the branch-and-bound. `1` (the default) searches
    /// sequentially; `0` uses the hardware parallelism; `>= 2` runs the
    /// adaptive work-stealing scheduler: every worker searches plain DFS
    /// and *offers* subtrees to idle workers only once its own subtree has
    /// proven deep enough. The verdict and the certificate are identical
    /// for every thread count (see DESIGN.md, "Adaptive work-stealing
    /// parallel search").
    pub threads: usize,
    /// Nodes a worker must expand inside its current work unit before the
    /// unit counts as deep enough to split (parallel mode only). Below the
    /// threshold a subtree is finished by its owner, so small trees never
    /// pay for a state clone — or even a thread spawn, since helpers start
    /// lazily on the first unclaimed offer; above it the worker donates
    /// its highest open branch whenever another worker is starving. The
    /// default (256 nodes, a fraction of a millisecond of search) is the
    /// point below which cloning a state and waking a thread cannot pay
    /// for itself. Must be `>= 1`.
    pub split_after_nodes: u64,
    /// How many queued-but-unclaimed work units the scheduler keeps
    /// *beyond* the number of currently idle workers. `0` (the default)
    /// splits strictly on demand — a worker must actually be waiting — and
    /// keeps speculative clones to a minimum; small values trade a few
    /// extra clones for hiding the donor's inter-node latency.
    pub split_backlog: usize,
    /// Structured telemetry sink for search events (see
    /// [`crate::telemetry`]). Disabled by default; aggregate counters in
    /// [`SolverStats`] are collected either way.
    pub telemetry: Telemetry,
    /// Collect per-phase wall-clock timings (`propagate_ns`, `bounds_ns`,
    /// `realize_ns`, per-rule prune time) into [`SolverStats`]. Off by
    /// default: with profiling off and [`Telemetry::none`] installed the
    /// hot path performs **zero** extra clock reads. Phase timings are
    /// informational — unlike the event *counts*, they are not
    /// thread-count invariant (see DESIGN.md, "Tracing and profiling").
    pub profile: bool,
    /// Per-job handle polled at every budget checkpoint: cooperative
    /// cancellation plus the live statistics every search publishes. The
    /// default token is never cancelled; install a clone of a caller-held
    /// [`CancelToken`] to stop a solve from outside (the `recopack serve`
    /// job daemon uses this for `DELETE /jobs/{id}`) or to watch its
    /// progress (`GET /jobs/{id}/progress`, CLI `--progress`).
    pub cancel: CancelToken,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            use_bounds: true,
            use_heuristics: true,
            clique_rule: true,
            c4_rule: true,
            orientation_rules: true,
            must_overlap_rule: true,
            node_limit: None,
            time_limit: None,
            component_first: false,
            twin_symmetry: true,
            threads: 1,
            split_after_nodes: 256,
            split_backlog: 0,
            telemetry: Telemetry::none(),
            profile: false,
            cancel: CancelToken::new(),
        }
    }
}

impl SolverConfig {
    /// A configuration with every acceleration disabled — pure DFS with only
    /// the C3 rule and full leaf checks. Used as the ablation baseline.
    pub fn bare() -> Self {
        Self {
            use_bounds: false,
            use_heuristics: false,
            clique_rule: false,
            c4_rule: false,
            orientation_rules: false,
            must_overlap_rule: false,
            node_limit: None,
            time_limit: None,
            component_first: false,
            twin_symmetry: false,
            threads: 1,
            split_after_nodes: 256,
            split_backlog: 0,
            telemetry: Telemetry::none(),
            profile: false,
            cancel: CancelToken::new(),
        }
    }

    /// The number of worker threads this configuration asks for, with `0`
    /// resolved to the hardware parallelism.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

/// Which resource budget ended a search early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitKind {
    /// [`SolverConfig::node_limit`] was exhausted.
    Nodes,
    /// [`SolverConfig::time_limit`] elapsed.
    Time,
    /// [`SolverConfig::cancel`] was cancelled from outside.
    Cancelled,
}

impl std::fmt::Display for LimitKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Nodes => write!(f, "node limit"),
            Self::Time => write!(f, "time limit"),
            Self::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Counters describing one solver run.
///
/// Collected per worker thread and merged with [`SolverStats::accumulate`];
/// for a search that runs to exhaustion (no limits, no feasible leaf) the
/// merged totals are identical for every thread count, because the explored
/// tree is. Serialized by
/// [`telemetry::stats_to_json`](crate::telemetry::stats_to_json) under the
/// versioned telemetry schema.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Search-tree nodes expanded (branching decisions taken).
    pub nodes: u64,
    /// Leaves reaching the full realization check.
    pub leaves: u64,
    /// Conflicts raised by the C2 clique rule.
    pub c2_conflicts: u64,
    /// Conflicts raised by the C3 rule.
    pub c3_conflicts: u64,
    /// Conflicts raised by the induced-C4 rule.
    pub c4_conflicts: u64,
    /// Conflicts raised by orientation (D1/D2) implications.
    pub orientation_conflicts: u64,
    /// Leaves rejected by the realization / verification step.
    pub leaf_rejections: u64,
    /// Edge states fixed in total — by propagation cascades plus the one
    /// branched slot per node (so `propagated_fixes - nodes` is the pure
    /// propagation yield).
    pub propagated_fixes: u64,
    /// Arcs oriented in comparability edges (precedence seeds, branching
    /// consequences, and D1/D2 implications).
    pub arc_fixations: u64,
    /// Propagation events processed (queue pops inside cascades: slot
    /// fixations and arc orientations whose consequences were closed).
    /// Thread-count invariant for exhausted searches, like `nodes`.
    pub propagation_events: u64,
    /// Budget checks charged at node entry (each polls the global node and
    /// time budgets once). In-cascade budget polls are *not* counted here:
    /// their number depends on how cascades split across workers, which
    /// would make the totals thread-count dependent.
    pub budget_checks: u64,
    /// Nodes expanded per branching depth: `depth_histogram[d]` counts the
    /// nodes whose branching decision was the `d`-th on its path. Depths
    /// are global — a stolen work unit resumes at its donor's depth — so
    /// the histogram matches the sequential one for exhausted searches.
    pub depth_histogram: Vec<u64>,
    /// Whether the answer came from bounds (`true`) without any search.
    pub refuted_by_bounds: bool,
    /// Which lower-bound family refuted the instance, when
    /// `refuted_by_bounds` is set.
    pub refuting_bound: Option<BoundKind>,
    /// Whether the answer came from the heuristic without any search.
    pub solved_by_heuristic: bool,
    /// Wall-clock nanoseconds spent in *successful* propagation cascades
    /// (branch consequences and root seeding). Collected only when
    /// [`SolverConfig::profile`] is set; always zero otherwise. Timings
    /// are informational — they sum worker-local clocks, so they are not
    /// thread-count invariant and are excluded from determinism claims.
    pub propagate_ns: u64,
    /// Wall-clock nanoseconds spent in the stage-1 lower-bound battery
    /// (profiling only).
    pub bounds_ns: u64,
    /// Wall-clock nanoseconds spent realizing and verifying leaves
    /// (profiling only).
    pub realize_ns: u64,
    /// Wall-clock nanoseconds of propagation cascades that ended in a
    /// prune, attributed to the rule that fired, indexed by
    /// [`PruneRule::index`](crate::telemetry::PruneRule::index)
    /// (profiling only). Disjoint from `propagate_ns`.
    pub prune_ns: [u64; 4],
}

impl SolverStats {
    /// Total conflicts over all propagation rules.
    pub fn conflicts(&self) -> u64 {
        self.c2_conflicts + self.c3_conflicts + self.c4_conflicts + self.orientation_conflicts
    }

    /// Records one expanded node at branching `depth`.
    pub(crate) fn record_node(&mut self, depth: usize) {
        self.nodes += 1;
        if self.depth_histogram.len() <= depth {
            self.depth_histogram.resize(depth + 1, 0);
        }
        self.depth_histogram[depth] += 1;
    }

    /// Adds the counters of `part` — used to merge per-thread statistics of
    /// a parallel search and per-decision statistics of a binary search.
    pub fn accumulate(&mut self, part: &SolverStats) {
        self.nodes += part.nodes;
        self.leaves += part.leaves;
        self.c2_conflicts += part.c2_conflicts;
        self.c3_conflicts += part.c3_conflicts;
        self.c4_conflicts += part.c4_conflicts;
        self.orientation_conflicts += part.orientation_conflicts;
        self.leaf_rejections += part.leaf_rejections;
        self.propagated_fixes += part.propagated_fixes;
        self.arc_fixations += part.arc_fixations;
        self.propagation_events += part.propagation_events;
        self.budget_checks += part.budget_checks;
        if self.depth_histogram.len() < part.depth_histogram.len() {
            self.depth_histogram.resize(part.depth_histogram.len(), 0);
        }
        for (total, &count) in self.depth_histogram.iter_mut().zip(&part.depth_histogram) {
            *total += count;
        }
        self.refuted_by_bounds |= part.refuted_by_bounds;
        if self.refuting_bound.is_none() {
            self.refuting_bound = part.refuting_bound;
        }
        self.solved_by_heuristic |= part.solved_by_heuristic;
        self.propagate_ns += part.propagate_ns;
        self.bounds_ns += part.bounds_ns;
        self.realize_ns += part.realize_ns;
        for (total, &ns) in self.prune_ns.iter_mut().zip(&part.prune_ns) {
            *total += ns;
        }
    }

    /// Total profiled time over all phases, in nanoseconds (zero unless
    /// [`SolverConfig::profile`] was set).
    pub fn profiled_ns(&self) -> u64 {
        self.propagate_ns + self.bounds_ns + self.realize_ns + self.prune_ns.iter().sum::<u64>()
    }

    /// The deepest branching level reached, if any node was expanded.
    pub fn max_depth(&self) -> Option<usize> {
        self.depth_histogram.iter().rposition(|&count| count > 0)
    }
}

impl std::fmt::Display for SolverStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nodes={} leaves={} conflicts(c2={}, c3={}, c4={}, orient={}) leaf_rejections={} propagated={} arcs={} max_depth={}",
            self.nodes,
            self.leaves,
            self.c2_conflicts,
            self.c3_conflicts,
            self.c4_conflicts,
            self.orientation_conflicts,
            self.leaf_rejections,
            self.propagated_fixes,
            self.arc_fixations,
            self.max_depth().map_or(0, |d| d + 1)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_everything() {
        let c = SolverConfig::default();
        assert!(c.clique_rule && c.c4_rule && c.orientation_rules && c.must_overlap_rule);
        assert!(c.use_bounds && c.use_heuristics);
        assert_eq!(c.node_limit, None);
    }

    #[test]
    fn bare_disables_accelerations() {
        let c = SolverConfig::bare();
        assert!(!c.clique_rule && !c.c4_rule && !c.orientation_rules);
        assert!(!c.use_bounds && !c.use_heuristics);
        assert!(!c.twin_symmetry);
    }

    #[test]
    fn threads_default_to_sequential() {
        assert_eq!(SolverConfig::default().threads, 1);
        assert_eq!(SolverConfig::default().effective_threads(), 1);
        let auto = SolverConfig {
            threads: 0,
            ..SolverConfig::default()
        };
        assert!(auto.effective_threads() >= 1);
        let four = SolverConfig {
            threads: 4,
            ..SolverConfig::default()
        };
        assert_eq!(four.effective_threads(), 4);
    }

    #[test]
    fn stats_accumulate_sums_counters() {
        let mut total = SolverStats {
            nodes: 10,
            c2_conflicts: 1,
            arc_fixations: 3,
            depth_histogram: vec![4, 6],
            ..SolverStats::default()
        };
        let part = SolverStats {
            nodes: 5,
            leaves: 2,
            arc_fixations: 2,
            propagation_events: 7,
            budget_checks: 5,
            depth_histogram: vec![1, 1, 3],
            refuting_bound: Some(recopack_bounds::BoundKind::Volume),
            solved_by_heuristic: true,
            ..SolverStats::default()
        };
        total.accumulate(&part);
        assert_eq!(total.nodes, 15);
        assert_eq!(total.leaves, 2);
        assert_eq!(total.c2_conflicts, 1);
        assert_eq!(total.arc_fixations, 5);
        assert_eq!(total.propagation_events, 7);
        assert_eq!(total.budget_checks, 5);
        assert_eq!(total.depth_histogram, vec![5, 7, 3]);
        assert_eq!(
            total.refuting_bound,
            Some(recopack_bounds::BoundKind::Volume)
        );
        assert!(total.solved_by_heuristic);
    }

    #[test]
    fn accumulate_keeps_the_first_refuting_bound() {
        let mut total = SolverStats {
            refuting_bound: Some(recopack_bounds::BoundKind::Dff),
            ..SolverStats::default()
        };
        total.accumulate(&SolverStats {
            refuting_bound: Some(recopack_bounds::BoundKind::Volume),
            ..SolverStats::default()
        });
        assert_eq!(total.refuting_bound, Some(recopack_bounds::BoundKind::Dff));
    }

    #[test]
    fn max_depth_tracks_the_histogram() {
        assert_eq!(SolverStats::default().max_depth(), None);
        let s = SolverStats {
            depth_histogram: vec![1, 2, 0, 4, 0],
            ..SolverStats::default()
        };
        assert_eq!(s.max_depth(), Some(3));
    }

    #[test]
    fn profiling_is_off_by_default_and_timings_accumulate() {
        assert!(!SolverConfig::default().profile);
        assert!(!SolverConfig::bare().profile);
        let mut total = SolverStats {
            propagate_ns: 5,
            prune_ns: [1, 0, 0, 0],
            ..SolverStats::default()
        };
        total.accumulate(&SolverStats {
            propagate_ns: 7,
            bounds_ns: 2,
            realize_ns: 3,
            prune_ns: [0, 4, 0, 0],
            ..SolverStats::default()
        });
        assert_eq!(total.propagate_ns, 12);
        assert_eq!(total.prune_ns, [1, 4, 0, 0]);
        assert_eq!(total.profiled_ns(), 12 + 2 + 3 + 1 + 4);
    }

    #[test]
    fn limit_kinds_name_their_budget() {
        assert_eq!(LimitKind::Nodes.to_string(), "node limit");
        assert_eq!(LimitKind::Time.to_string(), "time limit");
        assert_eq!(LimitKind::Cancelled.to_string(), "cancelled");
    }

    #[test]
    fn cancel_token_is_sticky_and_shared_between_clones() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let clone = token.clone();
        assert_eq!(token, clone);
        clone.cancel();
        assert!(token.is_cancelled());
        clone.cancel();
        assert!(clone.is_cancelled());
        // A freshly created token is a distinct cancellation domain.
        assert_ne!(token, CancelToken::new());
    }

    #[test]
    fn stats_aggregate_conflicts() {
        let s = SolverStats {
            c2_conflicts: 1,
            c3_conflicts: 2,
            c4_conflicts: 3,
            orientation_conflicts: 4,
            ..SolverStats::default()
        };
        assert_eq!(s.conflicts(), 10);
        assert!(s.to_string().contains("c3=2"));
    }
}
