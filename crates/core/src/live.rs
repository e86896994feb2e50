//! Live search statistics: one snapshot per job, readable mid-search.
//!
//! Every search worker already keeps exact [`SolverStats`]. Instead of
//! counting events a second time on the hot path, each worker *publishes*
//! its running counters into its own cache-line-padded slot at
//! the every-64-nodes budget checkpoint — a handful of relaxed stores, no
//! clock reads, no shared read-modify-write. When a search ends, its
//! merged, exact statistics are folded into the finished totals and its
//! slots are retired under one lock, to be zeroed and reused by the job's
//! next search: a multi-decision solve allocates its slots once.
//!
//! [`LiveStats`] travels on the job's
//! [`CancelToken`](crate::CancelToken) — the handle the budget checkpoint
//! already polls — so multi-decision solvers (BMP, SPP, Pareto) accumulate
//! across their searches without any extra configuration. Readers (the
//! CLI's `--progress` line, `GET /jobs/{id}/progress`) call
//! [`LiveStats::snapshot`], which sums the finished totals and every
//! running slot.
//!
//! A mid-search snapshot lags the search by at most 64 nodes per worker
//! and is never larger than the final statistics; successive snapshots
//! never decrease. A snapshot taken after the last search ended is exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::config::SolverStats;

/// Depth slots of [`LiveSnapshot::depth_profile`]. Nodes deeper than the
/// last slot are clamped into it, so a slot stays a fixed set of atomics
/// no matter how deep the search goes.
pub const DEPTH_SLOTS: usize = 32;

/// Nodes a worker expands between two publications of its slot.
pub(crate) const PUBLISH_INTERVAL: u64 = 64;

/// Search counters as a reader sees them: exact [`SolverStats`] counters
/// plus a clamped depth profile, summed over every search of one job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveSnapshot {
    /// Search-tree nodes expanded ([`SolverStats::nodes`]).
    pub nodes: u64,
    /// Propagation-queue events processed
    /// ([`SolverStats::propagation_events`]).
    pub propagation_events: u64,
    /// Conflicts per rule, indexed by
    /// [`PruneRule::index`](crate::PruneRule::index).
    pub conflicts: [u64; 4],
    /// Leaves reaching the realization check ([`SolverStats::leaves`]).
    pub leaves: u64,
    /// Leaves rejected by realization ([`SolverStats::leaf_rejections`]).
    pub leaf_rejections: u64,
    /// Deepest branching depth at which a node was expanded (`0` before
    /// the first node).
    pub max_depth: u64,
    /// Nodes per branching depth ([`SolverStats::depth_histogram`]) with
    /// depths beyond the last slot clamped into it.
    pub depth_profile: [u64; DEPTH_SLOTS],
    /// Searches that ran to completion (one per exact decision).
    pub searches_finished: u64,
}

impl LiveSnapshot {
    /// The snapshot view of one search's statistics.
    fn of(stats: &SolverStats) -> Self {
        let mut depth_profile = [0; DEPTH_SLOTS];
        for (depth, &count) in stats.depth_histogram.iter().enumerate() {
            depth_profile[depth.min(DEPTH_SLOTS - 1)] += count;
        }
        Self {
            nodes: stats.nodes,
            propagation_events: stats.propagation_events,
            conflicts: [
                stats.c2_conflicts,
                stats.c3_conflicts,
                stats.c4_conflicts,
                stats.orientation_conflicts,
            ],
            leaves: stats.leaves,
            leaf_rejections: stats.leaf_rejections,
            max_depth: stats.max_depth().unwrap_or(0) as u64,
            depth_profile,
            searches_finished: 0,
        }
    }

    fn add(&mut self, other: &LiveSnapshot) {
        self.nodes += other.nodes;
        self.propagation_events += other.propagation_events;
        for (total, n) in self.conflicts.iter_mut().zip(other.conflicts) {
            *total += n;
        }
        self.leaves += other.leaves;
        self.leaf_rejections += other.leaf_rejections;
        self.max_depth = self.max_depth.max(other.max_depth);
        for (total, n) in self.depth_profile.iter_mut().zip(other.depth_profile) {
            *total += n;
        }
        self.searches_finished += other.searches_finished;
    }

    /// Total conflicts over every rule.
    pub fn conflicts_total(&self) -> u64 {
        self.conflicts.iter().sum()
    }

    /// The depth profile with trailing all-zero slots trimmed.
    pub fn depth_profile_trimmed(&self) -> &[u64] {
        let len = self
            .depth_profile
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |last| last + 1);
        &self.depth_profile[..len]
    }
}

/// One worker's published counters, alone on its cache lines so workers
/// never contend on a shared line.
#[repr(align(64))]
#[derive(Debug, Default)]
pub(crate) struct LiveSlot {
    nodes: AtomicU64,
    propagation_events: AtomicU64,
    conflicts: [AtomicU64; 4],
    leaves: AtomicU64,
    leaf_rejections: AtomicU64,
    max_depth: AtomicU64,
    depth_profile: [AtomicU64; DEPTH_SLOTS],
}

impl LiveSlot {
    /// Publishes the worker's running statistics: relaxed stores only,
    /// each counter written by this worker alone.
    pub(crate) fn publish(&self, stats: &SolverStats) {
        self.publish_snapshot(&LiveSnapshot::of(stats));
    }

    fn publish_snapshot(&self, view: &LiveSnapshot) {
        self.nodes.store(view.nodes, Ordering::Relaxed);
        self.propagation_events
            .store(view.propagation_events, Ordering::Relaxed);
        for (slot, &n) in self.conflicts.iter().zip(&view.conflicts) {
            slot.store(n, Ordering::Relaxed);
        }
        self.leaves.store(view.leaves, Ordering::Relaxed);
        self.leaf_rejections
            .store(view.leaf_rejections, Ordering::Relaxed);
        self.max_depth.store(view.max_depth, Ordering::Relaxed);
        for (slot, &n) in self.depth_profile.iter().zip(&view.depth_profile) {
            slot.store(n, Ordering::Relaxed);
        }
    }

    fn load(&self) -> LiveSnapshot {
        LiveSnapshot {
            nodes: self.nodes.load(Ordering::Relaxed),
            propagation_events: self.propagation_events.load(Ordering::Relaxed),
            conflicts: std::array::from_fn(|i| self.conflicts[i].load(Ordering::Relaxed)),
            leaves: self.leaves.load(Ordering::Relaxed),
            leaf_rejections: self.leaf_rejections.load(Ordering::Relaxed),
            max_depth: self.max_depth.load(Ordering::Relaxed),
            depth_profile: std::array::from_fn(|i| self.depth_profile[i].load(Ordering::Relaxed)),
            searches_finished: 0,
        }
    }
}

#[derive(Debug, Default)]
struct LiveState {
    /// Exact totals of every finished search.
    finished: LiveSnapshot,
    /// Slots of the workers of running searches, tagged with their search.
    running: Vec<(u64, Arc<LiveSlot>)>,
    /// Slots of finished searches, zeroed and handed to the next search's
    /// workers, so a multi-decision job allocates its slots once.
    spare: Vec<Arc<LiveSlot>>,
}

/// The live statistics of one job: the exact totals of its finished
/// searches plus the published slots of the running ones. Obtained from
/// [`CancelToken::live`](crate::CancelToken::live).
#[derive(Debug, Default)]
pub struct LiveStats {
    state: Mutex<LiveState>,
    next_search: AtomicU64,
}

impl LiveStats {
    /// The current totals. Mid-search values lag by at most 64 nodes per
    /// worker; after the last search ends
    /// they equal the merged [`SolverStats`] of all searches.
    pub fn snapshot(&self) -> LiveSnapshot {
        let state = self.state.lock().expect("no poisoned locks");
        let mut total = state.finished;
        for (_, slot) in &state.running {
            total.add(&slot.load());
        }
        total
    }

    /// Opens a search; its workers register under the returned id.
    pub(crate) fn begin_search(&self) -> u64 {
        self.next_search.fetch_add(1, Ordering::Relaxed)
    }

    /// A zeroed slot for one worker of search `search`, reusing a slot of
    /// an earlier search when one is spare.
    pub(crate) fn register(&self, search: u64) -> Arc<LiveSlot> {
        let mut state = self.state.lock().expect("no poisoned locks");
        let slot = match state.spare.pop() {
            Some(slot) => {
                slot.publish_snapshot(&LiveSnapshot::default());
                slot
            }
            None => Arc::default(),
        };
        state.running.push((search, slot.clone()));
        slot
    }

    /// Closes search `search`: its merged, exact statistics replace its
    /// workers' slots in one step, so no reader sees a count go down.
    pub(crate) fn finish_search(&self, search: u64, stats: &SolverStats) {
        let mut done = LiveSnapshot::of(stats);
        done.searches_finished = 1;
        let mut state = self.state.lock().expect("no poisoned locks");
        let LiveState {
            finished,
            running,
            spare,
        } = &mut *state;
        running.retain(|(id, slot)| {
            if *id == search {
                spare.push(slot.clone());
            }
            *id != search
        });
        finished.add(&done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Opp, SolveOutcome, SolverConfig};
    use recopack_model::{Chip, Instance, Task};

    /// `quads` full-height 2x2x2 tasks plus `units` unit-duration 2x2x1
    /// tasks on a 4x4 chip with horizon 2: infeasible by volume, provable
    /// only by search (the bench suite's `quad`/`mixed` families).
    fn overflow(quads: usize, units: usize) -> Instance {
        let mut builder = Instance::builder().chip(Chip::square(4)).horizon(2);
        for i in 0..quads {
            builder = builder.task(Task::new(format!("t{i}"), 2, 2, 2));
        }
        for i in 0..units {
            builder = builder.task(Task::new(format!("u{i}"), 2, 2, 1));
        }
        builder.build().expect("valid").with_transitive_closure()
    }

    fn search_only(threads: usize) -> SolverConfig {
        SolverConfig {
            use_bounds: false,
            use_heuristics: false,
            threads,
            split_after_nodes: 16,
            ..SolverConfig::default()
        }
    }

    #[test]
    fn snapshot_after_a_parallel_search_equals_the_merged_stats() {
        for (name, instance) in [("quad5", overflow(5, 0)), ("mixed64", overflow(6, 4))] {
            let config = search_only(2);
            let live = config.cancel.clone();
            let (outcome, stats) = Opp::new(&instance).with_config(config).solve_with_stats();
            assert!(matches!(outcome, SolveOutcome::Infeasible(_)), "{name}");
            assert!(stats.nodes > 0, "{name} must search");
            let snapshot = live.live().snapshot();
            let mut expected = LiveSnapshot::of(&stats);
            expected.searches_finished = 1;
            assert_eq!(snapshot, expected, "{name}");
            assert_eq!(snapshot.nodes, stats.nodes, "{name}");
            assert_eq!(snapshot.conflicts_total(), stats.conflicts(), "{name}");
            assert_eq!(
                snapshot.depth_profile_trimmed(),
                &stats.depth_histogram[..],
                "{name}: shallow histograms fit the profile unclamped"
            );
        }
    }

    #[test]
    fn stats_are_bit_identical_under_a_polling_reader() {
        use std::sync::atomic::AtomicBool;
        let instance = overflow(6, 4);
        for threads in [1, 2] {
            let (_, plain) = Opp::new(&instance)
                .with_config(search_only(threads))
                .solve_with_stats();
            let config = search_only(threads);
            let token = config.cancel.clone();
            let stop = Arc::new(AtomicBool::new(false));
            let reader = {
                let (token, stop) = (token.clone(), stop.clone());
                std::thread::spawn(move || {
                    let mut last = 0;
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let nodes = token.live().snapshot().nodes;
                        assert!(nodes >= last, "live node counts never go down");
                        last = nodes;
                        reads += 1;
                        std::thread::yield_now();
                    }
                    (last, reads)
                })
            };
            let (_, polled) = Opp::new(&instance).with_config(config).solve_with_stats();
            stop.store(true, Ordering::Relaxed);
            let (last, reads) = reader.join().expect("reader thread");
            assert!(reads > 0);
            assert!(
                last <= polled.nodes,
                "a mid-run reading never exceeds the final"
            );
            assert_eq!(plain, polled, "{threads} threads: polling must not perturb");
            assert_eq!(token.live().snapshot().nodes, polled.nodes);
        }
    }

    #[test]
    fn multi_search_jobs_accumulate() {
        let config = search_only(1);
        let token = config.cancel.clone();
        let instance = overflow(5, 0);
        let (_, first) = Opp::new(&instance)
            .with_config(config.clone())
            .solve_with_stats();
        let (_, second) = Opp::new(&instance).with_config(config).solve_with_stats();
        let snapshot = token.live().snapshot();
        assert_eq!(snapshot.searches_finished, 2);
        assert_eq!(snapshot.nodes, first.nodes + second.nodes);
        assert_eq!(
            snapshot.propagation_events,
            first.propagation_events + second.propagation_events
        );
    }

    #[test]
    fn reused_slots_start_from_zero() {
        let live = LiveStats::default();
        let stats = SolverStats {
            nodes: 5,
            depth_histogram: vec![5],
            ..SolverStats::default()
        };
        let first = live.begin_search();
        let slot = live.register(first);
        slot.publish(&stats);
        drop(slot);
        live.finish_search(first, &stats);
        let second = live.begin_search();
        assert_ne!(first, second);
        let reused = live.register(second);
        assert_eq!(
            live.state.lock().unwrap().spare.len(),
            0,
            "the slot is reused"
        );
        let running = live.snapshot();
        assert_eq!(running.nodes, 5, "a reused slot carries no stale counts");
        assert_eq!(running.depth_profile[0], 5);
        reused.publish(&stats);
        assert_eq!(live.snapshot().nodes, 10);
    }

    #[test]
    fn depth_profile_clamps_at_the_final_slot() {
        let live = LiveStats::default();
        assert!(live.snapshot().depth_profile_trimmed().is_empty());
        let mut histogram = vec![0; DEPTH_SLOTS + 3];
        histogram[0] = 1;
        histogram[2] = 2;
        // The last in-range depth and everything beyond it share slot 31.
        histogram[DEPTH_SLOTS - 1] = 1;
        histogram[DEPTH_SLOTS] = 1;
        histogram[DEPTH_SLOTS + 2] = 2;
        let stats = SolverStats {
            nodes: histogram.iter().sum(),
            depth_histogram: histogram,
            ..SolverStats::default()
        };
        let search = live.begin_search();
        let slot = live.register(search);
        slot.publish(&stats);
        let running = live.snapshot();
        assert_eq!(running.depth_profile.len(), DEPTH_SLOTS);
        assert_eq!(running.depth_profile[DEPTH_SLOTS - 1], 4);
        assert_eq!(&running.depth_profile[..3], &[1, 0, 2]);
        assert!(
            running.depth_profile[3..DEPTH_SLOTS - 1]
                .iter()
                .all(|&n| n == 0),
            "clamped nodes must not leak into lower slots"
        );
        assert_eq!(running.max_depth, DEPTH_SLOTS as u64 + 2);
        assert_eq!(running.searches_finished, 0);
        live.finish_search(search, &stats);
        let done = live.snapshot();
        assert_eq!(done.depth_profile, running.depth_profile);
        assert_eq!(done.nodes, 7);
        assert_eq!(done.searches_finished, 1);
    }
}
