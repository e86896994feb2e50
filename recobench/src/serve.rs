//! The served workloads, `serve_mixed` and `serve_prove`: an in-process
//! `recopack serve` with the default `ServeConfig` (two workers), driven
//! by closed-loop keep-alive clients that each wait for their own jobs.
//!
//! A job's latency runs from its submission until the client holds its
//! `done` report, polls included. How many round trips a job costs shows
//! in `http.requests_per_job`. The request samples (`request_ms_*`) are
//! one round trip per job, chosen per workload (see [`Sampled`]).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use recopack_core::Opp;
use recopack_json::Json;
use recopack_model::format::{format_placement, parse_placement};
use recopack_serve::{cache, ServeConfig, Server};

use crate::check::check_served;
use crate::counts::SearchCounts;
use crate::http::{histogram_delta, histogram_mean_ms, scrape, Client};
use crate::instances::{
    client_rng, fresh_draw, load, prove_cases, relabel, search_only, serve_pool, Case, Expect,
    POOL_SIZE,
};
use crate::trace::Tracer;
use crate::{
    host, ratio, record_quantiles, stats, write_spans, Options, Outcome, Tally, Window, Workload,
    SETUP_REPEATS,
};

/// Node limits of `serve_prove` jobs start here: far above any exact
/// node count of the `prove` set, and distinct per job, so every job
/// misses the cache (the key includes the limit) while its search is the
/// direct one.
const NODE_LIMIT_BASE: u64 = 1 << 40;

/// Clients of `serve_mixed`, one per CPU of the reference host.
const MIXED_CLIENTS: usize = 2;

/// Percent of `serve_mixed` operations that are relabeled pool repeats;
/// the next [`BATCH_PERCENT`] are batches, the rest fresh draws.
const REPEAT_PERCENT: usize = 50;
const BATCH_PERCENT: usize = 15;

/// In the traced run, the first `serve_mixed` client scrapes `/metrics`
/// after every this many operations.
const SCRAPE_EVERY: u64 = 100;

/// Client index of the warm-up jobs, apart from the window's clients.
const WARM_UP_CLIENT: usize = 0xffff;

/// Longest a job may take before the client counts it as failed.
const JOB_DEADLINE: Duration = Duration::from_secs(60);

/// Poll backoff: the first poll waits [`FIRST_BACKOFF`], each later one
/// twice as long, up to [`MAX_BACKOFF`].
const FIRST_BACKOFF: Duration = Duration::from_micros(20);
const MAX_BACKOFF: Duration = Duration::from_millis(1);

/// A booted server with the workload's inputs.
struct Setup {
    server: Server,
    addr: SocketAddr,
    cases: Vec<Case>,
    next_limit: AtomicU64,
}

impl Setup {
    fn stop(self) {
        self.server.shutdown();
        self.server.join();
    }
}

/// One job to submit and how to judge its result.
struct Job {
    text: String,
    expect: Expect,
    /// Exact node count the served search must report (`serve_prove`).
    nodes: Option<u64>,
    family: bool,
    body: String,
}

fn opp_body(name: &str, text: &str, extra: Vec<(String, Json)>) -> String {
    let mut members = vec![
        ("kind".to_string(), Json::String("opp".to_string())),
        ("name".to_string(), Json::String(name.to_string())),
        ("instance".to_string(), Json::String(text.to_string())),
    ];
    members.extend(extra);
    Json::Object(members).to_json_string()
}

fn mixed_job(name: &str, text: String, expect: Expect) -> Job {
    Job {
        body: opp_body(name, &text, Vec::new()),
        text,
        expect,
        nodes: None,
        family: false,
    }
}

fn prove_job(case: &Case, node_limit: u64) -> Job {
    let extra = vec![
        ("use_bounds".to_string(), Json::Bool(false)),
        ("use_heuristics".to_string(), Json::Bool(false)),
        ("node_limit".to_string(), Json::Number(node_limit as f64)),
    ];
    Job {
        body: opp_body(&case.name, &case.text, extra),
        text: case.text.clone(),
        expect: case.expect,
        nodes: Some(case.nodes),
        family: case.kind == "family",
    }
}

/// Samples shared by all clients of one window, for its end condition.
/// Which round trip of a job is its request sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sampled {
    /// The submission, `POST /jobs` or `POST /jobs:batch`: it carries
    /// parsing, canonicalization, the cache and dedup lookups and queue
    /// admission (`serve_mixed`).
    Submission,
    /// The poll that delivers the `done` report and placement: it carries
    /// their rendering (`serve_prove`). A `serve_prove` submission wakes a
    /// worker whose solve races the reply for the CPU; on a two-CPU host
    /// its round trip switches between two modes (about 50 and 100 us)
    /// that each last for seconds, so it is reported as `http.submit_ms`
    /// instead.
    Report,
}

impl Sampled {
    fn of(workload: Workload) -> Self {
        match workload {
            Workload::ServeMixed => Sampled::Submission,
            _ => Sampled::Report,
        }
    }
}

#[derive(Default)]
struct Shared {
    latencies: AtomicUsize,
    requests: AtomicUsize,
}

/// One client's connection, samples and counters.
struct ClientRun<'a> {
    http: Client,
    shared: &'a Shared,
    client: u64,
    op: u64,
    sampled: Sampled,
    tally: Tally,
    latencies: Vec<f64>,
    requests: Vec<f64>,
    round_trips: u64,
    jobs: u64,
    tracer: Option<Tracer>,
    counts: SearchCounts,
    report_wall_ms: f64,
}

impl<'a> ClientRun<'a> {
    fn new(
        addr: SocketAddr,
        shared: &'a Shared,
        workload: Workload,
        client: usize,
        tracer: Option<Tracer>,
    ) -> Self {
        Self {
            http: Client::new(addr),
            shared,
            client: client as u64,
            op: 0,
            sampled: Sampled::of(workload),
            tally: Tally::default(),
            latencies: Vec::new(),
            requests: Vec::new(),
            round_trips: 0,
            jobs: 0,
            tracer,
            counts: SearchCounts::default(),
            report_wall_ms: 0.0,
        }
    }

    /// A fresh operation id, unique across clients.
    fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.client << 32 | self.op
    }

    fn open(&mut self, op: u64, name: &'static str, parent: Option<usize>) -> Option<usize> {
        self.tracer.as_mut().map(|t| t.open(op, name, parent))
    }

    fn close(&mut self, span: Option<usize>) {
        if let (Some(t), Some(s)) = (self.tracer.as_mut(), span) {
            t.close(s);
        }
    }

    /// One round trip, traced as span `name` when tracing; returns the
    /// status, the body and the round trip's milliseconds.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        op: u64,
        span: (&'static str, Option<usize>),
    ) -> Result<(u16, String, f64), String> {
        let s = self.open(op, span.0, span.1);
        let t0 = Instant::now();
        let result = self.http.request(method, path, body, &format!("rb{op}"));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.close(s);
        self.round_trips += 1;
        let (status, body) = result.map_err(|e| format!("{method} {path}: {e}"))?;
        Ok((status, body, ms))
    }

    /// Records a request sample when `kind` is the sampled round trip.
    fn sample(&mut self, kind: Sampled, ms: f64) {
        if kind == self.sampled {
            self.requests.push(ms);
            self.shared.requests.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One submission round trip.
    fn submit(
        &mut self,
        path: &str,
        body: &str,
        op: u64,
        parent: Option<usize>,
    ) -> Result<(u16, String), String> {
        let (status, reply, ms) = self.request("POST", path, body, op, ("http.submit", parent))?;
        self.sample(Sampled::Submission, ms);
        Ok((status, reply))
    }

    /// Polls job `id` with a short backoff until it is finished; returns
    /// its final document.
    fn wait(&mut self, id: u64, op: u64, parent: Option<usize>) -> Result<Json, String> {
        let deadline = Instant::now() + JOB_DEADLINE;
        let path = format!("/jobs/{id}");
        let mut backoff = FIRST_BACKOFF;
        loop {
            let (status, body, ms) = self.request("GET", &path, "", op, ("http.poll", parent))?;
            if status != 200 {
                return Err(format!("GET {path} returned {status}: {body}"));
            }
            let doc = Json::parse(&body).map_err(|e| format!("GET {path}: {e}"))?;
            match doc.get("status").and_then(Json::as_str) {
                Some("queued" | "running") if Instant::now() < deadline => {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(MAX_BACKOFF);
                }
                Some("queued" | "running") => return Err(format!("job {id} timed out")),
                _ => {
                    self.sample(Sampled::Report, ms);
                    return Ok(doc);
                }
            }
        }
    }

    /// Before submitting, when tracing: the bench-side parse and
    /// canonicalization of the instance.
    fn prepare(&mut self, job: &Job, op: u64, root: Option<usize>) {
        if let Some(tracer) = self.tracer.as_mut() {
            let instance = tracer.time(op, "model.parse", root, || load(&job.text));
            black_box(tracer.time(op, "cache.canonical_form", root, || {
                cache::canonical_form(&instance)
            }));
        }
    }

    /// Judges one finished job; when tracing, also times verification
    /// and rendering of its placement.
    fn judge(&mut self, job: &Job, doc: &Json, op: u64, root: Option<usize>) -> Result<(), String> {
        let text = |key: &str| doc.get(key).and_then(Json::as_str);
        let placement = text("placement");
        check_served(
            job.expect,
            &job.text,
            text("status").unwrap_or(""),
            text("outcome").unwrap_or(""),
            placement,
        )?;
        if let Some(expected) = job.nodes {
            let report = doc.get("report").ok_or("finished job without a report")?;
            let nodes = self
                .counts
                .add(report, job.family)
                .ok_or("report without search statistics")?;
            self.report_wall_ms += report.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
            if nodes != expected {
                return Err(format!(
                    "served search took {nodes} nodes, direct {expected}"
                ));
            }
        }
        if let (Some(tracer), Some(placement)) = (self.tracer.as_mut(), placement) {
            let instance = load(&job.text);
            let p = parse_placement(placement, &instance).map_err(|e| e.to_string())?;
            let _ = black_box(tracer.time(op, "model.verify", root, || p.verify(&instance)));
            black_box(tracer.time(op, "model.render", root, || format_placement(&p, &instance)));
        }
        Ok(())
    }

    fn finish(
        &mut self,
        job: &Job,
        result: Result<Json, String>,
        ms: f64,
        op: u64,
        root: Option<usize>,
    ) {
        self.tally.attempted += 1;
        self.jobs += 1;
        match result.and_then(|doc| self.judge(job, &doc, op, root)) {
            Ok(()) => {
                self.latencies.push(ms);
                self.shared.latencies.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => self.tally.fail(e),
        }
    }

    /// Submits one job and waits until the client holds its report.
    fn single(&mut self, job: Job) {
        let op = self.next_op();
        let root = self.open(op, "op", None);
        self.prepare(&job, op, root);
        let t0 = Instant::now();
        let span = self.open(op, "job", root);
        let result = self
            .submit("/jobs", &job.body, op, span)
            .and_then(|(status, body)| {
                let id = Json::parse(&body)
                    .ok()
                    .and_then(|d| d.get("id").and_then(Json::as_u64))
                    .filter(|_| status == 202)
                    .ok_or_else(|| format!("POST /jobs returned {status}: {body}"))?;
                self.wait(id, op, span)
            });
        self.close(span);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.finish(&job, result, ms, op, root);
        self.close(root);
    }

    /// Submits jobs as one `POST /jobs:batch` and waits for each; an
    /// item's latency runs from the batch submission.
    fn batch(&mut self, jobs: Vec<Job>) {
        let op = self.next_op();
        let root = self.open(op, "op", None);
        for job in &jobs {
            self.prepare(job, op, root);
        }
        let bodies: Vec<&str> = jobs.iter().map(|j| j.body.as_str()).collect();
        let body = format!("{{\"jobs\":[{}]}}", bodies.join(","));
        let t0 = Instant::now();
        let span = self.open(op, "job", root);
        let reply = self.submit("/jobs:batch", &body, op, span);
        let ids: Vec<Option<u64>> = match &reply {
            Ok((200, body)) => Json::parse(body)
                .ok()
                .and_then(|d| d.get("jobs").and_then(Json::as_array).map(<[Json]>::to_vec))
                .map(|items| {
                    items
                        .iter()
                        .map(|i| i.get("id").and_then(Json::as_u64))
                        .collect()
                })
                .unwrap_or_default(),
            _ => Vec::new(),
        };
        for (i, job) in jobs.iter().enumerate() {
            let result = match ids.get(i).copied().flatten() {
                Some(id) => self.wait(id, op, span),
                None => Err(format!("batch item {i} was not admitted: {reply:?}")),
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            self.finish(job, result, ms, op, root);
        }
        self.close(span);
        self.close(root);
    }

    /// Times one `/metrics` scrape.
    fn scrape_metrics(&mut self) {
        let op = self.next_op();
        let root = self.open(op, "op", None);
        self.tally.attempted += 1;
        if let Err(e) = self.request("GET", "/metrics", "", op, ("metrics.scrape", root)) {
            self.tally.fail(e);
        }
        self.close(root);
    }
}

fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = Client::new(addr);
    loop {
        match client.request("GET", "/healthz", "", "rb-health") {
            Ok((200, _)) => return Ok(()),
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            other => return Err(format!("server never became healthy: {other:?}")),
        }
    }
}

/// Boots the server, waits for `/healthz`, generates the inputs and
/// warms up with one job per case.
fn boot(options: &Options) -> Result<Setup, String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let server = Server::bind(&config).map_err(|e| format!("cannot bind: {e}"))?;
    let addr = server.local_addr();
    wait_healthy(addr)?;
    let cases = match options.workload {
        Workload::ServeMixed => serve_pool(options.seed),
        _ => prove_cases(options.seed),
    };
    let setup = Setup {
        server,
        addr,
        cases,
        next_limit: AtomicU64::new(NODE_LIMIT_BASE),
    };
    let shared = Shared::default();
    let mut client = ClientRun::new(addr, &shared, options.workload, WARM_UP_CLIENT, None);
    for case in &setup.cases {
        client.single(job_for(&setup, options.workload, case, case.text.clone()));
    }
    if client.tally.failed > 0 {
        return Err(format!("warm-up failed: {:?}", client.tally.errors));
    }
    Ok(setup)
}

fn job_for(setup: &Setup, workload: Workload, case: &Case, text: String) -> Job {
    match workload {
        Workload::ServeMixed => mixed_job(&case.name, text, case.expect),
        _ => prove_job(case, setup.next_limit.fetch_add(1, Ordering::Relaxed)),
    }
}

fn fresh_job(options: &Options, client: u64, drawn: &mut u64) -> Job {
    *drawn += 1;
    let (text, expect) = fresh_draw(options.seed, client as usize, *drawn);
    mixed_job(&format!("fresh-{client}-{drawn}"), text, expect)
}

/// The same fresh draw under new names: submitted in one batch with the
/// original, it attaches to the original's in-flight run.
fn twin_job(job: &Job, rng: &mut StdRng) -> Job {
    mixed_job("twin", relabel(&job.text, rng), job.expect)
}

fn repeat_job(setup: &Setup, rng: &mut StdRng) -> Job {
    let case = &setup.cases[rng.gen_range(0..POOL_SIZE)];
    mixed_job(&case.name, relabel(&case.text, rng), case.expect)
}

/// One `serve_mixed` client: relabeled pool repeats; batches of a
/// repeat, a fresh draw and its relabeled twin; and fresh draws.
fn mixed_client(run: &mut ClientRun, setup: &Setup, options: &Options, window: Window) {
    let mut rng: StdRng = client_rng(options.seed, run.client as usize);
    let mut drawn = 0u64;
    let mut ops = 0u64;
    while !window.over(
        run.shared.latencies.load(Ordering::Relaxed),
        run.shared.requests.load(Ordering::Relaxed),
    ) {
        let roll = rng.gen_range(0..100);
        if roll < REPEAT_PERCENT {
            run.single(repeat_job(setup, &mut rng));
        } else if roll < REPEAT_PERCENT + BATCH_PERCENT {
            let fresh = fresh_job(options, run.client, &mut drawn);
            let twin = twin_job(&fresh, &mut rng);
            run.batch(vec![repeat_job(setup, &mut rng), fresh, twin]);
        } else {
            run.single(fresh_job(options, run.client, &mut drawn));
        }
        ops += 1;
        if run.tracer.is_some() && run.client == 0 && ops.is_multiple_of(SCRAPE_EVERY) {
            run.scrape_metrics();
        }
    }
}

/// The `serve_prove` client: the `prove` set, one job at a time, in
/// whole passes when `whole_passes` is set. Returns the passes completed.
fn prove_client(run: &mut ClientRun, setup: &Setup, window: Window, whole_passes: bool) -> u64 {
    let mut passes = 0;
    loop {
        for case in &setup.cases {
            run.single(job_for(
                setup,
                Workload::ServeProve,
                case,
                case.text.clone(),
            ));
            if !whole_passes && window.over(run.latencies.len(), run.requests.len()) {
                return passes;
            }
        }
        passes += 1;
        if window.over(run.latencies.len(), run.requests.len()) {
            return passes;
        }
    }
}

/// A finished window: every client's results merged.
struct Measured {
    tally: Tally,
    latencies: Vec<f64>,
    requests: Vec<f64>,
    round_trips: u64,
    jobs: u64,
    reconnects: u64,
    passes: u64,
    tracer: Tracer,
    counts: SearchCounts,
    report_wall_ms: f64,
    seconds: f64,
    cpu_s: f64,
}

fn measure(setup: &Setup, options: &Options, window: Window, traced: bool) -> Measured {
    let shared = Shared::default();
    let epoch = Instant::now();
    let cpu0 = host::cpu_seconds().unwrap_or(0.0);
    let clients = match options.workload {
        Workload::ServeMixed => MIXED_CLIENTS,
        _ => 1,
    };
    let runs: Vec<(ClientRun, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let shared = &shared;
                scope.spawn(move || {
                    let tracer = traced.then(|| Tracer::new(epoch));
                    let mut run = ClientRun::new(setup.addr, shared, options.workload, c, tracer);
                    let passes = match options.workload {
                        Workload::ServeMixed => {
                            mixed_client(&mut run, setup, options, window);
                            0
                        }
                        _ => prove_client(&mut run, setup, window, traced),
                    };
                    (run, passes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut measured = Measured {
        tally: Tally::default(),
        latencies: Vec::new(),
        requests: Vec::new(),
        round_trips: 0,
        jobs: 0,
        reconnects: 0,
        passes: 0,
        tracer: Tracer::new(epoch),
        counts: SearchCounts::default(),
        report_wall_ms: 0.0,
        seconds: epoch.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds().unwrap_or(0.0) - cpu0,
    };
    for (run, passes) in runs {
        measured.tally.merge(run.tally);
        measured.latencies.extend(run.latencies);
        measured.requests.extend(run.requests);
        measured.round_trips += run.round_trips;
        measured.jobs += run.jobs;
        measured.reconnects += run.http.connects.saturating_sub(1);
        measured.passes += passes;
        if let Some(tracer) = run.tracer {
            measured.tracer.absorb(tracer);
        }
        measured.counts.merge(&run.counts);
        measured.report_wall_ms += run.report_wall_ms;
    }
    measured
}

fn metrics_text(addr: SocketAddr) -> Result<String, String> {
    match Client::new(addr).request("GET", "/metrics", "", "rb-scrape") {
        Ok((200, body)) => Ok(body),
        other => Err(format!("GET /metrics failed: {other:?}")),
    }
}

/// Direct in-process solve time of every case, median of three, in
/// seconds.
fn direct_solve_s(cases: &[Case]) -> Vec<f64> {
    cases
        .iter()
        .map(|case| {
            let instance = load(&case.text);
            let times: Vec<f64> = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(Opp::new(&instance).with_config(search_only()).solve());
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            stats::median(&times).expect("three samples")
        })
        .collect()
}

/// Runs `serve_mixed` or `serve_prove`.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let mut values = BTreeMap::new();
    let mut notes = Vec::new();
    let repeats = if options.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut ready: Option<Setup> = None;
    for _ in 0..repeats {
        if let Some(previous) = ready.take() {
            previous.stop();
        }
        let t0 = Instant::now();
        ready = Some(boot(options)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let setup = ready.expect("at least one set-up");

    if !options.trace {
        let window = Window::start(options.seconds, stats::MIN_SAMPLES_FOR_P99);
        let m = measure(&setup, options, window, false);
        setup.stop();
        record_quantiles(
            &mut values,
            &mut notes,
            ("latency_ms_p50", "latency_ms_p99"),
            &m.latencies,
        );
        record_quantiles(
            &mut values,
            &mut notes,
            ("request_ms_p50", "request_ms_p99"),
            &m.requests,
        );
        values.insert("throughput_per_s", m.latencies.len() as f64 / m.seconds);
        values.insert("setup_s", stats::median(&setup_s).expect("set-ups ran"));
        notes.push(format!(
            "{} jobs, {} round trips, {:.3} per job",
            m.jobs,
            m.round_trips,
            ratio(m.round_trips as f64, m.jobs as f64)
        ));
        return Ok(Outcome {
            tally: m.tally,
            values,
            notes,
        });
    }

    let half = options.seconds / 2.0;
    let base = measure(&setup, options, Window::start(half, 0), false);
    let before = metrics_text(setup.addr)?;
    let traced = measure(&setup, options, Window::start(half, 0), true);
    let after = metrics_text(setup.addr)?;
    let served_solve_s = histogram_delta(&before, &after, "recopack_job_solve_seconds").1;
    let direct: f64 = if options.workload == Workload::ServeProve {
        traced.passes as f64 * direct_solve_s(&setup.cases).iter().sum::<f64>()
    } else {
        0.0
    };
    setup.stop();

    let mut tally = base.tally;
    tally.merge(traced.tally);
    let jobs = base.jobs as f64;
    values.insert("latency.samples", base.latencies.len() as f64);
    values.insert("request.samples", base.requests.len() as f64);
    values.insert("proc.cpu_ms_per_op", ratio(base.cpu_s * 1e3, jobs));
    values.insert(
        "http.requests_per_job",
        ratio(base.round_trips as f64, jobs),
    );
    values.insert(
        "http.reconnects",
        (base.reconnects + traced.reconnects) as f64,
    );
    let untraced_p50 = stats::median(&base.latencies).unwrap_or(0.0);
    let traced_p50 = stats::median(&traced.tracer.durations_ms("job")).unwrap_or(0.0);
    values.insert("trace.overhead_ratio", ratio(traced_p50, untraced_p50));

    let totals = traced.tracer.totals();
    let mean_us = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_self_us());
    values.insert("model.parse_us", mean_us("model.parse"));
    values.insert("model.render_us", mean_us("model.render"));
    values.insert("model.verify_us", mean_us("model.verify"));
    values.insert("cache.canonicalize_us", mean_us("cache.canonical_form"));
    values.insert("metrics.scrape_ms", mean_us("metrics.scrape") / 1e3);
    values.insert("http.submit_ms", mean_us("http.submit") / 1e3);

    let mean_ms = |family: &str| histogram_mean_ms(&before, &after, family);
    values.insert(
        "http.server_ms",
        mean_ms("recopack_http_request_duration_seconds"),
    );
    values.insert("queue.wait_ms", mean_ms("recopack_job_queue_wait_seconds"));
    values.insert("worker.solve_ms", mean_ms("recopack_job_solve_seconds"));
    values.insert(
        "cache.server_canonicalize_us",
        mean_ms("recopack_cache_canonicalization_seconds") * 1e3,
    );
    let delta = |series: &str| scrape(&after, series) - scrape(&before, series);
    let hits = delta("recopack_cache_hits_total");
    let misses = delta("recopack_cache_misses_total");
    values.insert("cache.hit_ratio", ratio(hits, hits + misses));
    values.insert(
        "cache.dedup_joins",
        delta("recopack_jobs_deduplicated_total"),
    );
    values.insert("queue.rejected", delta("recopack_jobs_rejected_total"));

    if options.workload == Workload::ServeProve {
        traced.counts.record(&mut values, traced.passes);
        values.insert(
            "search.nodes_per_s",
            ratio(traced.counts.nodes as f64, traced.report_wall_ms / 1e3),
        );
        values.insert("worker.served_over_direct", ratio(served_solve_s, direct));
    }
    let spans = write_spans(options, &traced.tracer)?;
    notes.push(format!(
        "traced {} jobs over {:.2} s; spans in {}",
        traced.jobs,
        traced.seconds,
        spans.display()
    ));
    Ok(Outcome {
        tally,
        values,
        notes,
    })
}
