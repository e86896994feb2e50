//! `recobench`: the end-to-end and per-layer benchmark of recopack.
//!
//! Four seeded workloads, each a closed loop driven from this process:
//!
//! * `prove` — `recopack_cli::run(["solve", file, "--no-bounds",
//!   "--no-heuristics"])` on the infeasible overflow families and seeded
//!   search-only draws: the packing-class search dominates;
//! * `pipeline` — `solve`, `bmp` and `spp` with the full pipeline on the
//!   paper's benchmarks and seeded draws: bounds, heuristics, parsing,
//!   rendering and verification dominate;
//! * `serve_mixed` — an in-process `recopack serve` with two keep-alive
//!   clients submitting relabeled repeats, fresh draws and batches: HTTP,
//!   canonicalization, cache and queue dominate;
//! * `serve_prove` — the same server with one client submitting the
//!   `prove` set as search-only jobs that all miss the cache: solving
//!   dominates, so the served path's per-node cost shows against `prove`.
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]); a
//! traced run times the calls into each layer's public functions from
//! outside the program and reads the program's own counters
//! ([`PER_LAYER`]). See `README.md` beside this package.

#![forbid(unsafe_code)]

pub mod check;
pub mod cli;
pub mod counts;
pub mod host;
pub mod http;
pub mod instances;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use recopack_json::Json;

/// The end-to-end metrics of an untraced run, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("throughput_per_s", "1/s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p99", "ms"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of a traced run, with their units. A layer the
/// workload's path does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("model.parse_us", "us"),
    ("model.render_us", "us"),
    ("model.verify_us", "us"),
    ("bounds.refute_us", "us"),
    ("bounds.refuted_ratio", "ratio"),
    ("heur.find_us", "us"),
    ("heur.hit_ratio", "ratio"),
    ("search.nodes", "count"),
    ("search.family_nodes", "count"),
    ("search.propagation_events", "count"),
    ("search.conflicts.c2", "count"),
    ("search.conflicts.c3", "count"),
    ("search.conflicts.c4", "count"),
    ("search.conflicts.orientation", "count"),
    ("search.prune_ratio", "ratio"),
    ("search.leaves", "count"),
    ("search.leaf_accept_ratio", "ratio"),
    ("search.nodes_per_s", "1/s"),
    ("search.propagate_ms", "ms"),
    ("search.prune_ms.c2", "ms"),
    ("search.prune_ms.c3", "ms"),
    ("search.prune_ms.c4", "ms"),
    ("search.prune_ms.orientation", "ms"),
    ("search.realize_ms", "ms"),
    ("http.server_ms", "ms"),
    ("http.submit_ms", "ms"),
    ("http.requests_per_job", "ratio"),
    ("http.reconnects", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.dedup_joins", "count"),
    ("cache.canonicalize_us", "us"),
    ("cache.server_canonicalize_us", "us"),
    ("queue.wait_ms", "ms"),
    ("queue.rejected", "count"),
    ("worker.solve_ms", "ms"),
    ("worker.served_over_direct", "ratio"),
    ("metrics.scrape_ms", "ms"),
    ("proc.cpu_ms_per_op", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("error_rate", "ratio"),
    ("latency.samples", "count"),
    ("request.samples", "count"),
    ("host.nproc", "count"),
    ("host.calib_ms", "ms"),
];

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CLI search-only solves.
    Prove,
    /// CLI full-pipeline `solve`, `bmp` and `spp`.
    Pipeline,
    /// Served relabeled repeats, fresh draws and batches.
    ServeMixed,
    /// Served search-only jobs that miss the cache.
    ServeProve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Prove,
        Workload::Pipeline,
        Workload::ServeMixed,
        Workload::ServeProve,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Prove => "prove",
            Workload::Pipeline => "pipeline",
            Workload::ServeMixed => "serve_mixed",
            Workload::ServeProve => "serve_prove",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every input the run generates.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
}

/// Attempted and failed operations, with the first failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong answer.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Records one failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// A measured window: it lasts `seconds` and, for untraced runs, until
/// enough samples exist to report a p99 (see
/// [`stats::MIN_SAMPLES_FOR_P99`]).
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// When the window may end.
    pub deadline: Instant,
    /// Latency and request samples the window must collect.
    pub min_samples: usize,
    /// When the window ends regardless.
    pub hard_stop: Instant,
}

impl Window {
    /// A window starting now.
    pub fn start(seconds: f64, min_samples: usize) -> Self {
        let now = Instant::now();
        Self {
            deadline: now + Duration::from_secs_f64(seconds),
            min_samples,
            hard_stop: now + Duration::from_secs_f64(seconds + 90.0),
        }
    }

    /// Whether the window is over, given the samples collected so far.
    pub fn over(&self, latencies: usize, requests: usize) -> bool {
        let now = Instant::now();
        now >= self.hard_stop
            || (now >= self.deadline
                && latencies >= self.min_samples
                && requests >= self.min_samples)
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines (sample counts, host), printed before the
    /// result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The metrics this run reports, in `BENCHMARK.json` order.
    pub fn reported(&self, trace: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        list.iter()
            .map(|&(name, unit)| match self.values.get(name) {
                Some(&v) if v.is_finite() => Ok((name, v, unit)),
                Some(_) => Err(format!("{name} is not finite")),
                None if trace => Ok((name, 0.0, unit)),
                None => Err(format!("{name} was not measured")),
            })
            .collect()
    }

    /// The final result line.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let metrics = self
            .reported(trace)?
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Json::Object(vec![
                        ("value".to_string(), Json::Number(value)),
                        ("unit".to_string(), Json::String(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Ok(Json::Object(vec![
            ("correct".to_string(), Json::Bool(self.tally.failed == 0)),
            (
                "attempted".to_string(),
                Json::Number(self.tally.attempted as f64),
            ),
            ("failed".to_string(), Json::Number(self.tally.failed as f64)),
            ("metrics".to_string(), Json::Object(metrics)),
        ])
        .to_json_string())
    }
}

/// Records `name`'s p50 and p99 into `values` and a note with the sample
/// count. A refused p99 is left out, so the run reports it as unmeasured.
pub fn record_quantiles(
    values: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
    (p50_name, p99_name): (&'static str, &'static str),
    samples: &[f64],
) {
    let Some(q) = stats::quantiles(samples) else {
        notes.push(format!("{p50_name}: no samples"));
        return;
    };
    values.insert(p50_name, q.p50);
    let mut note = format!("{p50_name} {:.4} over {} samples", q.p50, q.samples);
    match q.p99 {
        Some(p99) => {
            values.insert(p99_name, p99);
            let _ = write!(note, "; {p99_name} {p99:.4}");
        }
        None => {
            let _ = write!(
                note,
                "; {p99_name} refused (fewer than {} samples beyond it)",
                stats::MIN_BEYOND_P99
            );
        }
    }
    notes.push(note);
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Scratch space of one run inside the package directory, removed when
/// the run ends.
pub struct WorkDir {
    /// The run's own directory.
    pub path: PathBuf,
}

impl WorkDir {
    /// `recobench/.work`, where runs keep their files.
    pub fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
    }

    /// Creates a fresh directory for one run.
    pub fn create(options: &Options) -> Result<Self, String> {
        let path = Self::root().join(format!(
            "{}-{}-{}",
            options.workload.name(),
            options.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Self { path })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Runs one workload.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let work = WorkDir::create(options)?;
    let mut outcome = match options.workload {
        Workload::Prove | Workload::Pipeline => cli::run(options, &work)?,
        Workload::ServeMixed | Workload::ServeProve => serve::run(options)?,
    };
    let tally = &outcome.tally;
    outcome.values.insert(
        "success_rate",
        1.0 - ratio(tally.failed as f64, tally.attempted as f64),
    );
    outcome.values.insert(
        "error_rate",
        ratio(tally.failed as f64, tally.attempted as f64),
    );
    if let Some(rss) = host::peak_rss_mb() {
        outcome.values.insert("peak_rss_mb", rss);
    }
    Ok(outcome)
}

/// Writes a traced run's spans to `.work/spans-<workload>-<seed>.json`.
pub fn write_spans(options: &Options, tracer: &trace::Tracer) -> Result<PathBuf, String> {
    let path = WorkDir::root().join(format!(
        "spans-{}-{}.json",
        options.workload.name(),
        options.seed
    ));
    std::fs::write(&path, tracer.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}
