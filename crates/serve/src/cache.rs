//! The canonicalized-instance solution cache.
//!
//! Reconfiguration workloads resubmit structurally identical instances
//! constantly (the defragmentation and arrival-driven placement traces of
//! PAPERS.md re-place the same module mix over and over), so the service
//! memoizes finished [`SolveReport`]s keyed by a *canonical form* of the
//! instance: a serialization that is invariant under task renaming and
//! reordering. Two submissions that describe the same placement problem —
//! even with different task names or a permuted task list — map to the same
//! key and share one cached solution.
//!
//! # Soundness
//!
//! The key is a complete serialization of the instance (chip, horizon,
//! every task extent, every precedence arc) plus the result-affecting
//! solver knobs, never a lossy hash. Equal keys therefore imply equal
//! problems: an imperfect canonical ordering can only cost a cache *miss*,
//! never return the answer to a different instance.
//!
//! # Canonical form
//!
//! [`canonical_instance_text`] runs Weisfeiler–Leman color refinement over
//! the precedence DAG (initial colors from the task attribute tuples,
//! refined by the sorted predecessor/successor color multisets) and, where
//! refinement leaves symmetric classes, individualization-refinement
//! branching that keeps the lexicographically minimal serialization.
//! Genuinely interchangeable *twin* classes (identical attributes and
//! identical neighbor sets, no internal arcs) are branched once instead of
//! factorially — that covers the "n identical modules" instances common in
//! FPGA workloads. A work budget bounds pathological cases; on exhaustion
//! the input-order serialization is used, which is still sound (see above),
//! merely order-sensitive.
//!
//! [`SolveReport`]: recopack_core::SolveReport

use std::collections::{HashMap, VecDeque};

use recopack_core::SolverConfig;
use recopack_model::Instance;

/// Refinement-iteration budget for one canonicalization. Each unit is one
/// refinement sweep over the whole DAG; instances whose symmetry forces
/// more work than this fall back to the input-order serialization.
const REFINE_BUDGET: u32 = 4096;

/// A finished, deterministic solve result worth replaying for identical
/// submissions.
#[derive(Debug, Clone)]
pub struct CachedSolution {
    /// Terminal status word (always `done` for cached entries).
    pub status: &'static str,
    /// Outcome label, e.g. `feasible` or `side 4`.
    pub outcome: String,
    /// The schema-3 `SolveReport` JSON, byte-identical to the run that
    /// produced it.
    pub report: Option<String>,
    /// Box origins `[x, y, t]` indexed by *canonical position*, when the
    /// solve produced a placement. Name-free on purpose: the cache key is
    /// invariant under task relabeling, so a hit may come from a
    /// submission with entirely different task names — each job renders
    /// its own `place` lines from these via its canonical permutation.
    pub placement: Option<Vec<[u64; 3]>>,
}

/// Builds the full cache key for a submission: the problem kind, the
/// result-affecting solver knobs, and the canonical instance text.
///
/// Only knobs a submission can set are keyed (`threads`, bounds and
/// heuristic toggles, node/time budgets); the propagation-rule flags are
/// fixed server-side. `threads` is included even though verdicts are
/// thread-count invariant, because reported statistics are not merged
/// identically across counts and cached reports must be byte-identical to
/// what the same submission would compute.
pub fn cache_key(kind: &str, canonical_text: &str, config: &SolverConfig) -> String {
    let mut key = String::with_capacity(64 + canonical_text.len());
    key.push_str(kind);
    key.push('|');
    key.push_str(&format!(
        "t{};b{};h{};n{};l{}|",
        config.threads,
        u8::from(config.use_bounds),
        u8::from(config.use_heuristics),
        config
            .node_limit
            .map_or_else(|| "-".to_string(), |n| n.to_string()),
        config
            .time_limit
            .map_or_else(|| "-".to_string(), |d| d.as_millis().to_string()),
    ));
    key.push_str(canonical_text);
    key
}

/// The canonical serialization of an instance plus the permutation that
/// produced it — everything a submission needs to share name-free cached
/// placements with isomorphic submissions.
pub struct CanonicalInstance {
    /// The name-free serialization (see [`canonical_instance_text`]).
    pub text: String,
    /// `rank[v]` is the canonical position of task `v`: the index of its
    /// attribute tuple in `text`, and the slot its box origin occupies in
    /// [`CachedSolution::placement`].
    pub rank: Vec<u32>,
}

/// Canonicalizes `instance`: the serialized text is invariant under task
/// relabeling and reordering (up to the documented budget fallback), and
/// the returned permutation always matches the returned text, so a
/// placement stored in canonical positions can be rendered back with this
/// submission's task names.
pub fn canonical_form(instance: &Instance) -> CanonicalInstance {
    let mut canon = Canonicalizer::new(instance);
    let mut colors = canon.initial_colors();
    if canon.refine(&mut colors).is_ok() {
        if let Ok((text, rank)) = canon.search(&colors) {
            return CanonicalInstance { text, rank };
        }
    }
    // Budget exhausted: fall back to the input-order serialization. Still a
    // complete description of the instance, so never unsound — identical
    // resubmissions keep hitting, only *reordered* ones may miss.
    let rank: Vec<u32> = (0..instance.task_count() as u32).collect();
    let text = canon.serialize(&rank);
    CanonicalInstance { text, rank }
}

/// Serializes `instance` into a name-free text that is invariant under task
/// relabeling and reordering (up to the documented budget fallback).
pub fn canonical_instance_text(instance: &Instance) -> String {
    canonical_form(instance).text
}

/// Shared state of one canonicalization run.
struct Canonicalizer<'a> {
    instance: &'a Instance,
    budget: u32,
}

impl<'a> Canonicalizer<'a> {
    fn new(instance: &'a Instance) -> Self {
        Self {
            instance,
            budget: REFINE_BUDGET,
        }
    }

    /// Initial colors: the rank of each task's attribute tuple among the
    /// sorted distinct tuples — invariant under task order and names.
    fn initial_colors(&self) -> Vec<u32> {
        let tuples: Vec<[u64; 4]> = self
            .instance
            .tasks()
            .iter()
            .map(|t| [t.width(), t.height(), t.duration(), t.reconfiguration()])
            .collect();
        let mut sorted = tuples.clone();
        sorted.sort_unstable();
        sorted.dedup();
        tuples
            .iter()
            .map(|t| sorted.binary_search(t).expect("tuple present") as u32)
            .collect()
    }

    /// One round of Weisfeiler–Leman refinement to a fixed point: each
    /// task's color becomes the rank of `(color, sorted predecessor colors,
    /// sorted successor colors)`. Signatures embed the old color, so
    /// classes only ever split; the fixed point is reached when the
    /// assignment stops changing.
    fn refine(&mut self, colors: &mut Vec<u32>) -> Result<(), BudgetExhausted> {
        let n = colors.len();
        let dag = self.instance.precedence();
        loop {
            if self.budget == 0 {
                return Err(BudgetExhausted);
            }
            self.budget -= 1;
            let mut signatures: Vec<(u32, Vec<u32>, Vec<u32>)> = (0..n)
                .map(|v| {
                    let mut preds: Vec<u32> =
                        dag.predecessors(v).iter().map(|u| colors[u]).collect();
                    let mut succs: Vec<u32> = dag.successors(v).iter().map(|u| colors[u]).collect();
                    preds.sort_unstable();
                    succs.sort_unstable();
                    (colors[v], preds, succs)
                })
                .collect();
            let mut sorted = signatures.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let next: Vec<u32> = signatures
                .drain(..)
                .map(|sig| sorted.binary_search(&sig).expect("signature present") as u32)
                .collect();
            if next == *colors {
                return Ok(());
            }
            *colors = next;
        }
    }

    /// Individualization-refinement over a stable coloring: if it is
    /// discrete, serialize; otherwise split the first ambiguous class and
    /// keep the lexicographically smallest serialization over the
    /// branches. Returns the winning text together with the permutation
    /// (task index → canonical position) that produced it.
    fn search(&mut self, colors: &[u32]) -> Result<(String, Vec<u32>), BudgetExhausted> {
        let n = colors.len();
        let Some(class_color) = first_ambiguous_class(colors) else {
            return Ok((self.serialize(colors), colors.to_vec()));
        };
        let members: Vec<usize> = (0..n).filter(|&v| colors[v] == class_color).collect();
        // Twin classes — identical attributes (same color), identical
        // predecessor/successor *sets*, no arcs inside the class — are
        // genuinely interchangeable: swapping two members is an instance
        // automorphism, so every branch serializes identically and one
        // branch suffices. This keeps "n identical modules" linear instead
        // of factorial.
        let branch_once = self.is_twin_class(&members);
        let mut best: Option<(String, Vec<u32>)> = None;
        for &pick in &members {
            let mut child: Vec<u32> = colors
                .iter()
                .map(|&c| if c > class_color { c + 1 } else { c })
                .collect();
            for &v in &members {
                if v != pick {
                    child[v] = class_color + 1;
                }
            }
            self.refine(&mut child)?;
            let candidate = self.search(&child)?;
            if best.as_ref().is_none_or(|(b, _)| candidate.0 < *b) {
                best = Some(candidate);
            }
            if branch_once {
                break;
            }
        }
        Ok(best.expect("ambiguous class has members"))
    }

    /// Whether every member of a (same-color) class has identical
    /// predecessor and successor sets and no arc touches two members.
    fn is_twin_class(&self, members: &[usize]) -> bool {
        let dag = self.instance.precedence();
        let first = members[0];
        let preds = dag.predecessors(first);
        let succs = dag.successors(first);
        if members
            .iter()
            .any(|&m| preds.contains(m) || succs.contains(m))
        {
            return false;
        }
        members
            .iter()
            .skip(1)
            .all(|&m| dag.predecessors(m) == preds && dag.successors(m) == succs)
    }

    /// Serializes the instance with task `v` at position `rank[v]` and all
    /// names dropped. `rank` must be a permutation of `0..n`.
    fn serialize(&self, rank: &[u32]) -> String {
        use std::fmt::Write as _;
        let instance = self.instance;
        let chip = instance.chip();
        let mut order: Vec<usize> = (0..rank.len()).collect();
        order.sort_unstable_by_key(|&v| rank[v]);
        let mut text = format!(
            "c{}x{}h{}|",
            chip.width(),
            chip.height(),
            instance.horizon()
        );
        for &v in &order {
            let t = &instance.tasks()[v];
            let _ = write!(
                text,
                "{},{},{},{};",
                t.width(),
                t.height(),
                t.duration(),
                t.reconfiguration()
            );
        }
        text.push('|');
        let mut arcs: Vec<(u32, u32)> = instance
            .precedence()
            .arcs()
            .map(|(u, v)| (rank[u], rank[v]))
            .collect();
        arcs.sort_unstable();
        for (u, v) in arcs {
            let _ = write!(text, "{u}>{v};");
        }
        text
    }
}

/// Marker error: the canonicalization work budget ran out.
struct BudgetExhausted;

/// The smallest color shared by at least two tasks, if any.
fn first_ambiguous_class(colors: &[u32]) -> Option<u32> {
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for &c in colors {
        *counts.entry(c).or_insert(0) += 1;
    }
    colors.iter().copied().filter(|c| counts[c] >= 2).min()
}

/// A bounded least-recently-used map from cache keys to finished solutions.
///
/// Recency is tracked with generation tags and a lazily compacted queue, so
/// `get` and `insert` are O(1) amortized; eviction pops stale queue entries
/// until it finds the live least-recently-used key.
pub struct SolutionCache {
    capacity: usize,
    entries: HashMap<String, Slot>,
    /// Access order, oldest first. Stale pairs (whose generation no longer
    /// matches the live slot) are skipped during eviction and trimmed when
    /// the queue grows past a small multiple of the capacity.
    order: VecDeque<(u64, String)>,
    clock: u64,
}

struct Slot {
    generation: u64,
    value: CachedSolution,
}

impl SolutionCache {
    /// An empty cache holding at most `capacity` solutions (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            order: VecDeque::new(),
            clock: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &str) -> Option<CachedSolution> {
        let generation = self.tick();
        let slot = self.entries.get_mut(key)?;
        slot.generation = generation;
        let value = slot.value.clone();
        self.order.push_back((generation, key.to_string()));
        self.trim();
        Some(value)
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used
    /// entries beyond the capacity.
    pub fn insert(&mut self, key: String, value: CachedSolution) {
        let generation = self.tick();
        self.order.push_back((generation, key.clone()));
        self.entries.insert(key, Slot { generation, value });
        while self.entries.len() > self.capacity {
            let Some((generation, key)) = self.order.pop_front() else {
                break;
            };
            if self
                .entries
                .get(&key)
                .is_some_and(|slot| slot.generation == generation)
            {
                self.entries.remove(&key);
            }
        }
        self.trim();
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Drops stale queue entries once they outnumber live ones enough to
    /// matter, keeping the queue O(capacity).
    fn trim(&mut self) {
        if self.order.len() > self.entries.len().max(self.capacity) * 4 + 16 {
            let entries = &self.entries;
            self.order.retain(|(generation, key)| {
                entries
                    .get(key)
                    .is_some_and(|slot| slot.generation == *generation)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recopack_model::{format, Chip, Instance, Task};

    fn canon(text: &str) -> String {
        let instance = format::parse_instance(text).expect("instance parses");
        canonical_instance_text(&instance)
    }

    #[test]
    fn relabeling_and_reordering_do_not_change_the_canonical_text() {
        let a = "chip 4 4\nhorizon 6\ntask a 1 2 3\ntask b 2 2 1\ntask c 3 1 2\narc a b\narc b c\n";
        let b = "chip 4 4\nhorizon 6\ntask z 3 1 2\ntask y 2 2 1\ntask x 1 2 3\narc x y\narc y z\n";
        assert_eq!(canon(a), canon(b));
    }

    #[test]
    fn different_instances_get_different_keys() {
        let a = "chip 4 4\nhorizon 6\ntask a 1 2 3\ntask b 2 2 1\narc a b\n";
        let without_arc = "chip 4 4\nhorizon 6\ntask a 1 2 3\ntask b 2 2 1\n";
        let other_horizon = "chip 4 4\nhorizon 7\ntask a 1 2 3\ntask b 2 2 1\narc a b\n";
        assert_ne!(canon(a), canon(without_arc));
        assert_ne!(canon(a), canon(other_horizon));
    }

    /// The classic trap for naive tie-breaking: `a,b` identical, `c,d`
    /// identical, arcs `a->c` and `b->d`. Refinement can never separate `a`
    /// from `b` (the instance really is symmetric), so a tie-break by
    /// original index would serialize the two input orders differently.
    #[test]
    fn automorphic_instances_canonicalize_order_independently() {
        let ab = "chip 4 4\nhorizon 8\ntask a 1 1 1\ntask b 1 1 1\ntask c 2 2 2\ntask d 2 2 2\n\
                  arc a c\narc b d\n";
        let ba = "chip 4 4\nhorizon 8\ntask b 1 1 1\ntask a 1 1 1\ntask d 2 2 2\ntask c 2 2 2\n\
                  arc b d\narc a c\n";
        assert_eq!(canon(ab), canon(ba));
    }

    /// Many identical unrelated modules — the shape that makes naive
    /// individualization factorial — resolves via the twin-class shortcut.
    #[test]
    fn identical_module_stacks_canonicalize_quickly() {
        let mut forward = Instance::builder().chip(Chip::new(6, 6)).horizon(2);
        let mut renamed = Instance::builder().chip(Chip::new(6, 6)).horizon(2);
        for i in 0..12 {
            forward = forward.task(Task::new(format!("t{i}"), 2, 2, 2));
            renamed = renamed.task(Task::new(format!("m{}", 11 - i), 2, 2, 2));
        }
        let forward = forward.build().expect("valid");
        let renamed = renamed.build().expect("valid");
        assert_eq!(
            canonical_instance_text(&forward),
            canonical_instance_text(&renamed)
        );
    }

    #[test]
    fn key_distinguishes_kind_and_solver_knobs() {
        let instance =
            format::parse_instance("chip 2 2\nhorizon 4\ntask a 2 2 2\n").expect("instance parses");
        let canon = canonical_instance_text(&instance);
        let base = SolverConfig::default();
        let hard = SolverConfig {
            use_heuristics: false,
            ..SolverConfig::default()
        };
        assert_ne!(
            cache_key("opp", &canon, &base),
            cache_key("bmp", &canon, &base)
        );
        assert_ne!(
            cache_key("opp", &canon, &base),
            cache_key("opp", &canon, &hard)
        );
    }

    /// The returned permutation must describe the returned text: placing
    /// task `v` at position `rank[v]` reserializes to exactly the
    /// canonical text, whichever search branch (or the budget fallback)
    /// produced it. Cached placements are stored by canonical position, so
    /// any mismatch here would rename boxes onto the wrong tasks.
    #[test]
    fn canonical_rank_reproduces_the_canonical_text() {
        for text in [
            "chip 4 4\nhorizon 6\ntask a 1 2 3\ntask b 2 2 1\ntask c 3 1 2\narc a b\narc b c\n",
            "chip 4 4\nhorizon 8\ntask a 1 1 1\ntask b 1 1 1\ntask c 2 2 2\ntask d 2 2 2\n\
             arc a c\narc b d\n",
            "chip 6 6\nhorizon 2\ntask a 2 2 2\ntask b 2 2 2\ntask c 2 2 2\n",
        ] {
            let instance = format::parse_instance(text).expect("instance parses");
            let form = canonical_form(&instance);
            let mut sorted: Vec<u32> = form.rank.clone();
            sorted.sort_unstable();
            let identity: Vec<u32> = (0..instance.task_count() as u32).collect();
            assert_eq!(sorted, identity, "rank must be a permutation");
            assert_eq!(
                Canonicalizer::new(&instance).serialize(&form.rank),
                form.text,
                "rank and text must agree for {text:?}"
            );
        }
    }

    fn entry(tag: &str) -> CachedSolution {
        CachedSolution {
            status: "done",
            outcome: tag.to_string(),
            report: None,
            placement: None,
        }
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut cache = SolutionCache::new(2);
        cache.insert("a".into(), entry("a"));
        cache.insert("b".into(), entry("b"));
        assert!(cache.get("a").is_some(), "refresh a");
        cache.insert("c".into(), entry("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b").is_none(), "b was least recently used");
        assert!(cache.get("a").is_some() && cache.get("c").is_some());
    }

    #[test]
    fn lru_queue_stays_bounded_under_repeated_hits() {
        let mut cache = SolutionCache::new(2);
        cache.insert("a".into(), entry("a"));
        cache.insert("b".into(), entry("b"));
        for _ in 0..10_000 {
            assert!(cache.get("a").is_some());
        }
        assert!(
            cache.order.len() <= 2 * 4 + 17,
            "recency queue must stay O(capacity), got {}",
            cache.order.len()
        );
    }
}
