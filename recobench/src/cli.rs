//! The CLI workloads, `prove` and `pipeline`: one caller, closed loop,
//! every operation one `recopack_cli::run` call on an instance file.
//!
//! On these workloads one request is one `recopack_cli::run` call, so
//! `request_ms_*` equals `latency_ms_*`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use recopack_core::{Opp, SolveOutcome};
use recopack_heur::{find_feasible, HeuristicConfig};
use recopack_json::Json;
use recopack_model::format::{format_placement, parse_placement};
use recopack_model::render;

use crate::check::{check_cli, claim};
use crate::counts::SearchCounts;
use crate::instances::{load, pipeline_cases, prove_cases, search_only, Case, Command};
use crate::trace::Tracer;
use crate::{
    host, ratio, record_quantiles, stats, write_spans, Options, Outcome, Tally, Window, WorkDir,
    Workload, SETUP_REPEATS,
};

/// One CLI reply: the text it prints, or its error message.
type Reply = Result<String, String>;

fn call(args: &[String]) -> Reply {
    recopack_cli::run(args).map_err(|e| e.message)
}

/// A workload ready to run: its cases, their CLI arguments, and each
/// case's warm-up reply with its verdict. Every later reply must equal the
/// warm-up reply byte for byte (single-threaded solves are deterministic).
struct Setup {
    cases: Vec<Case>,
    args: Vec<Vec<String>>,
    reference: Vec<(Reply, Result<(), String>)>,
}

fn setup(options: &Options, work: &WorkDir) -> Result<Setup, String> {
    let (cases, flags): (Vec<Case>, &[&str]) = match options.workload {
        Workload::Prove => (
            prove_cases(options.seed),
            &["--no-bounds", "--no-heuristics", "--emit-placement"],
        ),
        _ => (pipeline_cases(options.seed), &["--emit-placement"]),
    };
    let mut args = Vec::with_capacity(cases.len());
    for (i, case) in cases.iter().enumerate() {
        let path = work.path.join(format!("{i}.rpk"));
        std::fs::write(&path, &case.text)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let mut call = vec![case.command.name().to_string(), path.display().to_string()];
        call.extend(flags.iter().map(|f| f.to_string()));
        args.push(call);
    }
    let reference = cases
        .iter()
        .zip(&args)
        .map(|(case, args)| {
            let reply = call(args);
            let verdict = check_cli(case, &reply);
            (reply, verdict)
        })
        .collect();
    Ok(Setup {
        cases,
        args,
        reference,
    })
}

/// Checks one window reply against the verified warm-up reply.
fn judge(setup: &Setup, i: usize, reply: &Reply) -> Result<(), String> {
    let (reference, verdict) = &setup.reference[i];
    if reply == reference {
        return verdict.clone();
    }
    check_cli(&setup.cases[i], reply)?;
    Err(format!(
        "{}: reply differs from the warm-up",
        setup.cases[i].name
    ))
}

/// An untraced window: latencies of the successful calls.
struct Untraced {
    tally: Tally,
    latencies: Vec<f64>,
    seconds: f64,
    cpu_s: f64,
}

fn untraced(setup: &Setup, window: Window) -> Untraced {
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    let cpu0 = host::cpu_seconds().unwrap_or(0.0);
    let started = Instant::now();
    'window: loop {
        for (i, args) in setup.args.iter().enumerate() {
            let t0 = Instant::now();
            let reply = call(args);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            tally.attempted += 1;
            match judge(setup, i, &reply) {
                Ok(()) => latencies.push(ms),
                Err(e) => tally.fail(e),
            }
            if window.over(latencies.len(), latencies.len()) {
                break 'window;
            }
        }
    }
    Untraced {
        tally,
        latencies,
        seconds: started.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds().unwrap_or(0.0) - cpu0,
    }
}

/// Outcomes of the stages replayed outside the CLI.
#[derive(Default)]
struct Stages {
    refute_calls: u64,
    refuted: u64,
    find_calls: u64,
    found: u64,
    search_nodes: u64,
}

/// Replays one `solve` through the public functions of each stage, in
/// the order `Opp::solve_with_stats` runs them: bounds, heuristics, search,
/// then verification and rendering of the placement.
fn replay_solve(
    tracer: &mut Tracer,
    op: u64,
    root: usize,
    case: &Case,
    full: bool,
    st: &mut Stages,
) {
    let instance = tracer.time(op, "model.parse", Some(root), || load(&case.text));
    if full {
        st.refute_calls += 1;
        let refuted = tracer.time(op, "bounds.refute", Some(root), || {
            recopack_bounds::refute(&instance)
        });
        if refuted.is_some() {
            st.refuted += 1;
            return;
        }
    }
    let mut placement = None;
    if full {
        st.find_calls += 1;
        placement = tracer.time(op, "heur.find_feasible", Some(root), || {
            find_feasible(&instance, &HeuristicConfig::default())
        });
        st.found += u64::from(placement.is_some());
    }
    if placement.is_none() {
        let (outcome, stats) = tracer.time(op, "search", Some(root), || {
            Opp::new(&instance)
                .with_config(search_only())
                .solve_with_stats()
        });
        st.search_nodes += stats.nodes;
        if let SolveOutcome::Feasible(p) = outcome {
            placement = Some(p);
        }
    }
    if let Some(p) = placement {
        let _ = black_box(tracer.time(op, "model.verify", Some(root), || p.verify(&instance)));
        black_box(tracer.time(op, "model.render", Some(root), || {
            (
                render::gantt(&p, &instance),
                format_placement(&p, &instance),
            )
        }));
    }
}

/// Replays the model stages of one `bmp` or `spp` call on its output.
fn replay_optimum(tracer: &mut Tracer, op: u64, root: usize, case: &Case, output: &str) {
    black_box(tracer.time(op, "model.parse", Some(root), || load(&case.text)));
    let Ok(claim) = claim(case, output) else {
        return;
    };
    let Some((target, places)) = claim.placed else {
        return;
    };
    let Ok(p) = parse_placement(&places, &target) else {
        return;
    };
    let _ = black_box(tracer.time(op, "model.verify", Some(root), || p.verify(&target)));
    black_box(tracer.time(op, "model.render", Some(root), || {
        (render::gantt(&p, &target), format_placement(&p, &target))
    }));
}

/// A traced window: its spans, outcomes, the program's own search
/// counters and the replayed stages' outcomes.
struct Traced {
    tracer: Tracer,
    tally: Tally,
    counts: SearchCounts,
    stages: Stages,
    passes: u64,
}

/// A traced window of whole passes: each call runs with `--stats-json`
/// and `--profile`, and is followed by a replay of its stages.
fn traced(
    setup: &Setup,
    options: &Options,
    work: &WorkDir,
    seconds: f64,
) -> Result<Traced, String> {
    let stats_path = work.path.join("stats.json");
    let full = options.workload == Workload::Pipeline;
    let mut run = Traced {
        tracer: Tracer::new(Instant::now()),
        tally: Tally::default(),
        counts: SearchCounts::default(),
        stages: Stages::default(),
        passes: 0,
    };
    let window = Window::start(seconds, 0);
    let mut op = 0;
    while run.passes == 0 || !window.over(0, 0) {
        for (i, case) in setup.cases.iter().enumerate() {
            op += 1;
            let mut args = setup.args[i].clone();
            args.extend([
                "--stats-json".to_string(),
                stats_path.display().to_string(),
                "--profile".to_string(),
            ]);
            // A call that fails writes no report; never read a stale one.
            let _ = std::fs::remove_file(&stats_path);
            let tracer = &mut run.tracer;
            let root = tracer.open(op, "op", None);
            let reply = tracer.time(op, "cli.run", Some(root), || call(&args));
            run.tally.attempted += 1;
            if let Err(e) = judge(setup, i, &reply) {
                run.tally.fail(e);
            }
            if let Ok(output) = &reply {
                let report = std::fs::read_to_string(&stats_path)
                    .map_err(|e| format!("cannot read {}: {e}", stats_path.display()))?;
                let report = Json::parse(&report).map_err(|e| format!("bad stats report: {e}"))?;
                run.counts
                    .add(&report, case.kind == "family")
                    .ok_or("stats report lacks the search statistics")?;
                match case.command {
                    Command::Solve => replay_solve(tracer, op, root, case, full, &mut run.stages),
                    Command::Bmp | Command::Spp => replay_optimum(tracer, op, root, case, output),
                }
            }
            tracer.close(root);
        }
        run.passes += 1;
    }
    Ok(run)
}

/// Runs `prove` or `pipeline`.
pub fn run(options: &Options, work: &WorkDir) -> Result<Outcome, String> {
    let mut values = BTreeMap::new();
    let mut notes = Vec::new();
    let repeats = if options.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        ready = Some(setup(options, work)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let setup = ready.expect("at least one set-up");
    notes.push(format!(
        "{} cases per pass: {:?}",
        setup.cases.len(),
        crate::instances::shape(&setup.cases)
    ));

    if !options.trace {
        let window = Window::start(options.seconds, stats::MIN_SAMPLES_FOR_P99);
        let run = untraced(&setup, window);
        record_quantiles(
            &mut values,
            &mut notes,
            ("latency_ms_p50", "latency_ms_p99"),
            &run.latencies,
        );
        record_quantiles(
            &mut values,
            &mut notes,
            ("request_ms_p50", "request_ms_p99"),
            &run.latencies,
        );
        values.insert("throughput_per_s", run.latencies.len() as f64 / run.seconds);
        values.insert("setup_s", stats::median(&setup_s).expect("set-ups ran"));
        return Ok(Outcome {
            tally: run.tally,
            values,
            notes,
        });
    }

    let half = options.seconds / 2.0;
    let base = untraced(&setup, Window::start(half, 0));
    let Traced {
        tracer,
        tally: traced_tally,
        counts,
        stages,
        passes,
    } = traced(&setup, options, work, half)?;
    let mut tally = base.tally;
    tally.merge(traced_tally);

    let ops = base.latencies.len() as f64;
    values.insert("latency.samples", ops);
    values.insert("request.samples", ops);
    values.insert("proc.cpu_ms_per_op", ratio(base.cpu_s * 1e3, ops));
    let untraced_p50 = stats::median(&base.latencies).unwrap_or(0.0);
    let traced_p50 = stats::median(&tracer.durations_ms("cli.run")).unwrap_or(0.0);
    values.insert("trace.overhead_ratio", ratio(traced_p50, untraced_p50));

    let totals = tracer.totals();
    let mean_us = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_self_us());
    values.insert("model.parse_us", mean_us("model.parse"));
    values.insert("model.render_us", mean_us("model.render"));
    values.insert("model.verify_us", mean_us("model.verify"));
    values.insert("bounds.refute_us", mean_us("bounds.refute"));
    values.insert("heur.find_us", mean_us("heur.find_feasible"));
    values.insert(
        "bounds.refuted_ratio",
        ratio(stages.refuted as f64, stages.refute_calls as f64),
    );
    values.insert(
        "heur.hit_ratio",
        ratio(stages.found as f64, stages.find_calls as f64),
    );
    let search_s = totals
        .get("search")
        .map_or(0.0, |t| t.total_ns as f64 / 1e9);
    values.insert(
        "search.nodes_per_s",
        ratio(stages.search_nodes as f64, search_s),
    );
    counts.record(&mut values, passes);
    let spans = write_spans(options, &tracer)?;
    notes.push(format!(
        "traced {passes} passes; spans in {}",
        spans.display()
    ));
    Ok(Outcome {
        tally,
        values,
        notes,
    })
}
