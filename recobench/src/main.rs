//! `recobench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. Earlier lines name the seed, the host fingerprint and the
//! sample count behind every percentile.
//!
//! The measurement runs in a child process of this one, whose standard
//! error goes to a file: the in-process server logs one line per request
//! there, tens of thousands per second.

use std::process::{Command, ExitCode};

use recobench::{host, Options, WorkDir, Workload};

/// Set in the child process that measures.
const CHILD_ENV: &str = "RECOBENCH_CHILD";

/// Lines of the child's standard error repeated when it fails.
const TAIL_LINES: usize = 20;

const USAGE: &str = "usage: recobench --workload <prove|pipeline|serve_mixed|serve_prove> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Runs this program again as the measuring child, with its standard
/// error in a file, waits for it and passes on its exit status.
fn supervise() -> Result<ExitCode, String> {
    let root = WorkDir::root();
    std::fs::create_dir_all(&root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    let log_path = root.join(format!("stderr-{}.log", std::process::id()));
    let log = std::fs::File::create(&log_path)
        .map_err(|e| format!("cannot create {}: {e}", log_path.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let status = Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env(CHILD_ENV, "1")
        .stderr(log)
        .status()
        .map_err(|e| format!("cannot start the measuring process: {e}"));
    let bytes = std::fs::metadata(&log_path).map_or(0, |m| m.len());
    let text = match &status {
        Ok(s) if s.success() => Vec::new(),
        _ => std::fs::read(&log_path).unwrap_or_default(),
    };
    let _ = std::fs::remove_file(&log_path);
    let status = status?;
    if status.success() {
        eprintln!("recobench: the measuring process logged {bytes} bytes to standard error");
        return Ok(ExitCode::SUCCESS);
    }
    let text = String::from_utf8_lossy(&text);
    let lines: Vec<&str> = text.lines().collect();
    for line in &lines[lines.len().saturating_sub(TAIL_LINES)..] {
        eprintln!("{line}");
    }
    let code = status
        .code()
        .and_then(|c| u8::try_from(c).ok())
        .unwrap_or(1);
    Ok(ExitCode::from(code.max(1)))
}

fn main() -> ExitCode {
    if std::env::var_os(CHILD_ENV).is_none() {
        return supervise().unwrap_or_else(|e| {
            eprintln!("recobench: {e}");
            ExitCode::FAILURE
        });
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("recobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = host::nproc();
    let calib_ms = host::calibration_ms();
    println!(
        "recobench workload={} seed={} seconds={} trace={} host: nproc={nproc} calib_ms={calib_ms:.3}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    let mut outcome = match recobench::run(&options) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("recobench: {e}");
            return ExitCode::FAILURE;
        }
    };
    outcome.values.insert("host.nproc", nproc as f64);
    outcome.values.insert("host.calib_ms", calib_ms);
    for note in &outcome.notes {
        println!("  {note}");
    }
    for error in &outcome.tally.errors {
        println!("  failure: {error}");
    }
    match outcome.result_line(options.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("recobench: {e}");
            ExitCode::FAILURE
        }
    }
}
