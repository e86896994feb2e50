//! Search counters and timers summed over the program's own
//! `SolveReport` documents (`--stats-json` files and served job reports).

use std::collections::BTreeMap;

use recopack_json::Json;

use crate::ratio;

/// Propagation rules in `SolveReport` order.
const RULES: [&str; 4] = ["c2", "c3", "c4", "orientation"];

/// Sums of one or more reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchCounts {
    /// Search nodes.
    pub nodes: u64,
    /// Nodes of the overflow-family solves alone.
    pub family_nodes: u64,
    /// Propagation events.
    pub propagation_events: u64,
    /// Leaves reaching realization.
    pub leaves: u64,
    /// Leaves realization rejected.
    pub leaf_rejections: u64,
    /// Conflicts per rule, in [`RULES`] order.
    pub conflicts: [u64; 4],
    /// Profiled propagation time.
    pub propagate_ns: u64,
    /// Profiled realization time.
    pub realize_ns: u64,
    /// Profiled prune time per rule, in [`RULES`] order.
    pub prune_ns: [u64; 4],
}

fn count(doc: &Json, path: &[&str]) -> Option<u64> {
    path.iter()
        .try_fold(doc, |node, key| node.get(key))?
        .as_u64()
}

impl SearchCounts {
    /// Adds one `SolveReport` document; returns its node count, or `None`
    /// when the document lacks the statistics.
    pub fn add(&mut self, report: &Json, family: bool) -> Option<u64> {
        let nodes = count(report, &["stats", "nodes"])?;
        self.nodes += nodes;
        if family {
            self.family_nodes += nodes;
        }
        self.propagation_events += count(report, &["stats", "propagation_events"])?;
        self.leaves += count(report, &["stats", "leaves"])?;
        self.leaf_rejections += count(report, &["stats", "leaf_rejections"])?;
        self.propagate_ns += count(report, &["stats", "timings", "propagate_ns"])?;
        self.realize_ns += count(report, &["stats", "timings", "realize_ns"])?;
        for (i, rule) in RULES.into_iter().enumerate() {
            self.conflicts[i] += count(report, &["stats", "conflicts", rule])?;
            self.prune_ns[i] += count(report, &["stats", "timings", "prune_ns", rule])?;
        }
        Some(nodes)
    }

    /// Adds another set of sums.
    pub fn merge(&mut self, other: &SearchCounts) {
        self.nodes += other.nodes;
        self.family_nodes += other.family_nodes;
        self.propagation_events += other.propagation_events;
        self.leaves += other.leaves;
        self.leaf_rejections += other.leaf_rejections;
        self.propagate_ns += other.propagate_ns;
        self.realize_ns += other.realize_ns;
        for i in 0..RULES.len() {
            self.conflicts[i] += other.conflicts[i];
            self.prune_ns[i] += other.prune_ns[i];
        }
    }

    /// Records the per-pass figures.
    pub fn record(&self, values: &mut BTreeMap<&'static str, f64>, passes: u64) {
        let per_pass = |x: u64| x as f64 / passes.max(1) as f64;
        let ms_per_pass = |ns: u64| per_pass(ns) / 1e6;
        values.insert("search.nodes", per_pass(self.nodes));
        values.insert("search.family_nodes", per_pass(self.family_nodes));
        values.insert(
            "search.propagation_events",
            per_pass(self.propagation_events),
        );
        values.insert("search.leaves", per_pass(self.leaves));
        values.insert(
            "search.leaf_accept_ratio",
            ratio(
                (self.leaves - self.leaf_rejections) as f64,
                self.leaves as f64,
            ),
        );
        values.insert(
            "search.prune_ratio",
            ratio(self.conflicts.iter().sum::<u64>() as f64, self.nodes as f64),
        );
        const CONFLICTS: [&str; 4] = [
            "search.conflicts.c2",
            "search.conflicts.c3",
            "search.conflicts.c4",
            "search.conflicts.orientation",
        ];
        const PRUNE_MS: [&str; 4] = [
            "search.prune_ms.c2",
            "search.prune_ms.c3",
            "search.prune_ms.c4",
            "search.prune_ms.orientation",
        ];
        for i in 0..RULES.len() {
            values.insert(CONFLICTS[i], per_pass(self.conflicts[i]));
            values.insert(PRUNE_MS[i], ms_per_pass(self.prune_ns[i]));
        }
        values.insert("search.propagate_ms", ms_per_pass(self.propagate_ns));
        values.insert("search.realize_ms", ms_per_pass(self.realize_ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_add_up_per_pass() {
        let report = Json::parse(
            r#"{"stats":{"nodes":10,"leaves":4,"leaf_rejections":3,"propagation_events":20,
            "conflicts":{"c2":6,"c3":0,"c4":1,"orientation":1},
            "timings":{"propagate_ns":2000000,"bounds_ns":0,"realize_ns":0,
            "prune_ns":{"c2":1000000,"c3":0,"c4":0,"orientation":0}}}}"#,
        )
        .expect("valid");
        let mut counts = SearchCounts::default();
        assert_eq!(counts.add(&report, true), Some(10));
        assert_eq!(counts.add(&report, false), Some(10));
        let mut values = BTreeMap::new();
        counts.record(&mut values, 2);
        assert_eq!(values["search.nodes"], 10.0);
        assert_eq!(values["search.family_nodes"], 5.0);
        assert_eq!(values["search.prune_ratio"], 0.8);
        assert_eq!(values["search.leaf_accept_ratio"], 0.25);
        assert_eq!(values["search.propagate_ms"], 2.0);
        assert_eq!(values["search.prune_ms.c2"], 1.0);
        assert!(counts.add(&Json::Null, false).is_none());
    }
}
