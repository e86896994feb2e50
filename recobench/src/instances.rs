//! Seeded workload inputs.
//!
//! Every instance set is a pure function of the seed. The program under
//! test only ever sees the instance *texts*; the expected answers are
//! computed here, through the library, before anything is timed.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use recopack_core::{Bmp, Opp, SolveOutcome, SolverConfig, SolverStats, Spp};
use recopack_model::format::{format_instance, parse_instance};
use recopack_model::generate::{layered_instance, random_instance, GeneratorConfig, LayeredConfig};
use recopack_model::{benchmarks, Chip, Instance};

/// The CLI subcommand an operation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Command {
    /// `recopack solve`: one feasibility decision.
    Solve,
    /// `recopack bmp`: the smallest square chip for the horizon.
    Bmp,
    /// `recopack spp`: the shortest makespan on the chip.
    Spp,
}

impl Command {
    /// The subcommand name.
    pub fn name(self) -> &'static str {
        match self {
            Command::Solve => "solve",
            Command::Bmp => "bmp",
            Command::Spp => "spp",
        }
    }
}

/// The answer an operation must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A verified placement exists.
    Feasible,
    /// No placement exists.
    Infeasible,
    /// The minimal square chip side.
    Side(u64),
    /// The minimal makespan.
    Makespan(u64),
    /// No chip admits the horizon: `bmp` exits with an error.
    Unreachable,
}

/// One workload input: an instance text, what to run on it, and the
/// expected answer.
#[derive(Debug, Clone)]
pub struct Case {
    /// Stable name within the seed's set.
    pub name: String,
    /// Family: `family` (infeasible overflow), `paper`, `random` or
    /// `layered`.
    pub kind: &'static str,
    /// Number of tasks (the size class).
    pub tasks: usize,
    /// Subcommand to run.
    pub command: Command,
    /// The instance as the program receives it.
    pub text: String,
    /// Expected answer.
    pub expect: Expect,
    /// Search nodes of the search-only solve (`prove` sets only; 0
    /// elsewhere).
    pub nodes: u64,
}

/// Draws per `(kind, tasks)` class of the `prove` set.
const PROVE_SHAPE: [(&str, usize, usize); 4] = [
    ("random", 6, 20),
    ("random", 7, 20),
    ("layered", 6, 20),
    ("layered", 9, 20),
];

/// `prove` draws must need at least this many search nodes (a draw that
/// propagation refutes at the root exercises no search) ...
const PROVE_MIN_NODES: u64 = 8;

/// ... and fewer than this many. Search-only trees are heavy-tailed (one
/// 8-task draw in a few hundred needs 10⁵–10⁶ nodes); the deep trees of a
/// pass come from the pinned overflow families instead, so the work per
/// pass stays comparable across seeds.
const PROVE_MAX_NODES: u64 = 1_000;

/// Draws per `(kind, tasks)` class of the `pipeline` set; each draw runs
/// under `solve`, `bmp` and `spp`.
const PIPELINE_SHAPE: [(&str, usize, usize); 5] = [
    ("random", 7, 200),
    ("random", 10, 200),
    ("random", 14, 200),
    ("layered", 9, 200),
    ("layered", 12, 200),
];

/// Per-decision node budget a `pipeline` or served draw must stay within
/// (bmp and spp searches near the optimum are heavy-tailed too).
const DRAW_NODE_BUDGET: u64 = 2_000;

/// Search nodes a `pipeline` draw may take under each subcommand: the
/// workload measures the stages before the search, and a rare deep bmp or
/// spp search would set the p99 of a whole seed.
const PIPELINE_MAX_NODES: u64 = 50;

/// Instances in the shared pool of `serve_mixed` repeats.
pub const POOL_SIZE: usize = 32;

/// The overflow families of `crates/bench/src/suite.rs`, by suite name.
const FAMILIES: [&str; 5] = ["quad5", "quad6", "quad7", "mixed64", "mixed56"];

/// Times each family runs per `prove` pass, spread evenly over the pass.
/// With two runs, the deepest family (`mixed56`) makes up about 2% of the
/// operations, so the p99 falls inside its own samples instead of on the
/// edge between two families.
pub const FAMILY_REPEATS: usize = 2;

/// A sub-seed for one draw: splitmix64 over the seed and the draw's
/// coordinates, so no two draws share a generator stream.
pub fn sub_seed(seed: u64, parts: &[u64]) -> u64 {
    let mut x = seed;
    for &p in parts {
        x = x.wrapping_add(p).wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
    }
    x
}

/// Parses an instance text the way the CLI and the server do.
pub fn load(text: &str) -> Instance {
    parse_instance(text)
        .expect("generated instance texts parse")
        .with_transitive_closure()
}

/// The configuration of `solve --no-bounds --no-heuristics`.
pub fn search_only() -> SolverConfig {
    SolverConfig {
        use_bounds: false,
        use_heuristics: false,
        ..SolverConfig::default()
    }
}

fn kind_tag(kind: &str) -> u64 {
    match kind {
        "random" => 1,
        "layered" => 2,
        _ => 3,
    }
}

fn draw(kind: &str, tasks: usize, rng: &mut StdRng) -> Instance {
    match kind {
        "random" => random_instance(
            &GeneratorConfig {
                task_count: tasks,
                max_side: 3,
                max_duration: 3,
                arc_percent: 30,
            },
            rng,
        ),
        _ => layered_instance(
            &LayeredConfig {
                layers: 3,
                width: tasks / 3,
                max_side: 3,
                max_duration: 3,
                arc_percent: 50,
            },
            rng,
        ),
    }
}

/// Redraws `(kind, tasks, index)` until `accept` takes the text; returns
/// the text and what `accept` returned.
fn draw_until<T>(
    seed: u64,
    kind: &str,
    tasks: usize,
    index: usize,
    mut accept: impl FnMut(&str) -> Option<T>,
) -> (String, T) {
    for attempt in 0..10_000u64 {
        let mut rng = StdRng::seed_from_u64(sub_seed(
            seed,
            &[kind_tag(kind), tasks as u64, index as u64, attempt],
        ));
        let text = format_instance(&draw(kind, tasks, &mut rng));
        if let Some(value) = accept(&text) {
            return (text, value);
        }
    }
    panic!("no acceptable {kind}{tasks} draw for seed {seed}");
}

fn verdict(outcome: &SolveOutcome) -> Option<Expect> {
    match outcome {
        SolveOutcome::Feasible(_) => Some(Expect::Feasible),
        SolveOutcome::Infeasible(_) => Some(Expect::Infeasible),
        SolveOutcome::ResourceLimit(_) => None,
    }
}

/// Search-only solve under a node budget: the verdict and statistics, or
/// `None` when the budget ran out.
fn search_only_solve(text: &str, budget: u64) -> Option<(Expect, SolverStats)> {
    let instance = load(text);
    let config = SolverConfig {
        node_limit: Some(budget),
        ..search_only()
    };
    let (outcome, stats) = Opp::new(&instance).with_config(config).solve_with_stats();
    Some((verdict(&outcome)?, stats))
}

/// Full-pipeline verdict within [`DRAW_NODE_BUDGET`]; `None` past it.
pub fn pipeline_verdict(text: &str) -> Option<Expect> {
    let config = SolverConfig {
        node_limit: Some(DRAW_NODE_BUDGET),
        ..SolverConfig::default()
    };
    verdict(&Opp::new(&load(text)).with_config(config).solve())
}

/// The `prove` set: the five overflow families (infeasible; the same
/// instances as the suite, so node counts cross-check
/// `benches/baseline.json`) and the seed's search-only draws, with the
/// families repeated [`FAMILY_REPEATS`] times at even intervals.
pub fn prove_cases(seed: u64) -> Vec<Case> {
    let suite = recopack_bench::suite::cases(false);
    let families: Vec<Case> = FAMILIES
        .iter()
        .map(|family| {
            let case = suite
                .iter()
                .find(|c| c.name == format!("{family}_t1"))
                .expect("the suite defines every overflow family");
            let text = format_instance(&case.instance);
            let (expect, stats) = search_only_solve(&text, u64::MAX).expect("no budget");
            assert_eq!(expect, Expect::Infeasible, "{family} is infeasible");
            Case {
                name: family.to_string(),
                kind: "family",
                tasks: case.instance.task_count(),
                command: Command::Solve,
                text,
                expect,
                nodes: stats.nodes,
            }
        })
        .collect();
    let mut draws = Vec::new();
    for (kind, tasks, count) in PROVE_SHAPE {
        for index in 0..count {
            let (text, (expect, stats)) = draw_until(seed, kind, tasks, index, |text| {
                search_only_solve(text, PROVE_MAX_NODES)
                    .filter(|(_, stats)| stats.nodes >= PROVE_MIN_NODES)
            });
            draws.push(Case {
                name: format!("{kind}{tasks}_{index}"),
                kind,
                tasks,
                command: Command::Solve,
                text,
                expect,
                nodes: stats.nodes,
            });
        }
    }
    let chunk = draws.len().div_ceil(FAMILY_REPEATS);
    draws
        .chunks(chunk)
        .flat_map(|part| families.iter().chain(part).cloned())
        .collect()
}

/// Full-pipeline answers of one draw under `solve`, `bmp` and `spp`, or
/// `None` when a subcommand needs more than [`PIPELINE_MAX_NODES`].
fn pipeline_answers(text: &str) -> Option<[Expect; 3]> {
    let instance = load(text);
    let config = SolverConfig {
        node_limit: Some(DRAW_NODE_BUDGET),
        ..SolverConfig::default()
    };
    let within = |stats: &SolverStats| stats.nodes <= PIPELINE_MAX_NODES;
    let (outcome, stats) = Opp::new(&instance)
        .with_config(config.clone())
        .solve_with_stats();
    let solve = verdict(&outcome).filter(|_| within(&stats))?;
    let bmp = if instance.critical_path_length() > instance.horizon() {
        Expect::Unreachable
    } else {
        let bmp = Bmp::new(&instance).with_config(config.clone()).solve()?;
        Some(Expect::Side(bmp.side)).filter(|_| within(&bmp.stats))?
    };
    let spp = Spp::new(&instance).with_config(config).solve()?;
    Some([solve, bmp, Expect::Makespan(spp.makespan)]).filter(|_| within(&spp.stats))
}

/// The `pipeline` set: the paper's DE and video-codec benchmarks with
/// their published answers, then the seed's draws under all three
/// subcommands.
pub fn pipeline_cases(seed: u64) -> Vec<Case> {
    let paper = |name: &str, instance: Instance, command: Command, expect: Expect| Case {
        name: name.to_string(),
        kind: "paper",
        tasks: instance.task_count(),
        command,
        text: format_instance(&instance),
        expect,
        nodes: 0,
    };
    let de = |side, horizon| benchmarks::de(Chip::square(side), horizon);
    let codec = |side, horizon| benchmarks::video_codec(Chip::square(side), horizon);
    let mut cases = vec![
        paper("de_32x6", de(32, 6), Command::Solve, Expect::Feasible),
        paper("de_32x5", de(32, 5), Command::Solve, Expect::Infeasible),
        paper("de_t14", de(32, 14), Command::Bmp, Expect::Side(16)),
        paper("de_16", de(16, 6), Command::Spp, Expect::Makespan(14)),
        paper(
            "codec_64x59",
            codec(64, 59),
            Command::Solve,
            Expect::Feasible,
        ),
        paper(
            "codec_64x58",
            codec(64, 58),
            Command::Solve,
            Expect::Infeasible,
        ),
        paper("codec_t59", codec(64, 59), Command::Bmp, Expect::Side(64)),
        paper(
            "codec_64",
            codec(64, 59),
            Command::Spp,
            Expect::Makespan(59),
        ),
    ];
    for (kind, tasks, count) in PIPELINE_SHAPE {
        for index in 0..count {
            let (text, answers) = draw_until(seed, kind, tasks, index, pipeline_answers);
            let commands = [Command::Solve, Command::Bmp, Command::Spp];
            for (command, expect) in commands.into_iter().zip(answers) {
                cases.push(Case {
                    name: format!("{kind}{tasks}_{index}_{}", command.name()),
                    kind,
                    tasks,
                    command,
                    text: text.clone(),
                    expect,
                    nodes: 0,
                });
            }
        }
    }
    cases
}

/// The shared pool of `serve_mixed` repeats: full-pipeline `random`
/// draws of 6–8 tasks.
pub fn serve_pool(seed: u64) -> Vec<Case> {
    (0..POOL_SIZE)
        .map(|index| {
            let tasks = 6 + index % 3;
            let (text, expect) =
                draw_until(seed ^ 0x5e7e, "random", tasks, index, pipeline_verdict);
            Case {
                name: format!("pool{index}"),
                kind: "random",
                tasks,
                command: Command::Solve,
                text,
                expect,
                nodes: 0,
            }
        })
        .collect()
}

/// A fresh full-pipeline draw of 6–9 tasks, unique per `(seed, client,
/// op)`, with its expected verdict.
pub fn fresh_draw(seed: u64, client: usize, op: u64) -> (String, Expect) {
    let tasks = 6 + (op % 4) as usize;
    let index = (client as u64) << 40 | op;
    draw_until(
        seed ^ 0xf7e5,
        "random",
        tasks,
        index as usize,
        pipeline_verdict,
    )
}

/// The same instance under new task names and a shuffled task and arc
/// order, so only a relabeling-invariant cache can recognize it.
pub fn relabel(text: &str, rng: &mut StdRng) -> String {
    let prefix = format!("m{:x}_", rng.next_u64() & 0xffff);
    let mut header = Vec::new();
    let mut tasks = Vec::new();
    let mut arcs = Vec::new();
    for line in text.lines() {
        match line.split_whitespace().next() {
            Some("task") => tasks.push(line),
            Some("arc") => arcs.push(line),
            _ => header.push(line.to_string()),
        }
    }
    let mut new_ids: Vec<usize> = (0..tasks.len()).collect();
    new_ids.shuffle(rng);
    let names: BTreeMap<&str, String> = tasks
        .iter()
        .zip(&new_ids)
        .map(|(line, id)| {
            let old = line
                .split_whitespace()
                .nth(1)
                .expect("task lines name a task");
            (old, format!("{prefix}{id}"))
        })
        .collect();
    let rename = |line: &str| -> String {
        line.split_whitespace()
            .enumerate()
            .map(|(i, word)| match (i, names.get(word)) {
                (1.., Some(name)) => name.as_str(),
                _ => word,
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut tasks: Vec<String> = tasks.into_iter().map(rename).collect();
    let mut arcs: Vec<String> = arcs.into_iter().map(rename).collect();
    tasks.shuffle(rng);
    arcs.shuffle(rng);
    let mut out = String::new();
    for line in header.iter().chain(&tasks).chain(&arcs) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// A generator for one client's choices.
pub fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, &[0xc11e, client as u64]))
}

/// The workload shape of a case list: how many cases of each kind, size
/// class and subcommand it holds.
pub fn shape(cases: &[Case]) -> BTreeMap<(&'static str, usize, Command), usize> {
    let mut counts = BTreeMap::new();
    for case in cases {
        *counts
            .entry((case.kind, case.tasks, case.command))
            .or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabeling_keeps_the_instance_up_to_names() {
        let pool = serve_pool(3);
        let mut rng = client_rng(3, 0);
        for case in &pool {
            let relabeled = relabel(&case.text, &mut rng);
            assert_ne!(relabeled, case.text);
            let a = recopack_serve::cache::canonical_instance_text(&load(&case.text));
            let b = recopack_serve::cache::canonical_instance_text(&load(&relabeled));
            assert_eq!(a, b, "{}", case.name);
        }
    }

    #[test]
    fn fresh_draws_are_distinct_and_decided() {
        let a = fresh_draw(1, 0, 0);
        let b = fresh_draw(1, 0, 1);
        let c = fresh_draw(1, 1, 0);
        assert_ne!(a.0, b.0);
        assert_ne!(a.0, c.0);
        assert_eq!(fresh_draw(1, 0, 0), a);
    }
}
