//! The live `--progress` reporter: a sampler thread that periodically reads
//! the solve's live statistics snapshot (published by the search workers
//! every 64 nodes, see [`recopack_core::live`]) and rewrites one stderr
//! status line, e.g.
//!
//! ```text
//! nodes 1.2M (410.0k/s) · depth 14/31 · prunes c2:62% c3:20% · elapsed 12.4s
//! ```
//!
//! The line is rewritten in place (`\r` + clear-to-end), so it only makes
//! sense on a terminal; the CLI auto-disables it when stderr is not a TTY
//! unless an explicit interval forces it. On finish the final totals are
//! printed and terminated with a newline, leaving the scrollback clean.

use std::io::Write as _;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use recopack_core::{CancelToken, LiveSnapshot, PruneRule};

/// Formats a count with a metric suffix (`1234` → `1.2k`).
fn human(n: u64) -> String {
    match n {
        0..=9_999 => format!("{n}"),
        10_000..=999_999 => format!("{:.1}k", n as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}M", n as f64 / 1e6),
        _ => format!("{:.2}G", n as f64 / 1e9),
    }
}

/// Renders one status line from a snapshot.
fn status_line(live: &LiveSnapshot, rate: f64, total_slots: u64, elapsed: Duration) -> String {
    use std::fmt::Write as _;
    let mut line = format!("nodes {} ({}/s)", human(live.nodes), human(rate as u64));
    let _ = write!(line, " · depth {}/{}", live.max_depth, total_slots);
    let prunes = live.conflicts_total();
    if prunes > 0 {
        line.push_str(" · prunes");
        let mut rules: Vec<(PruneRule, u64)> = PruneRule::ALL
            .into_iter()
            .map(|r| (r, live.conflicts[r.index()]))
            .filter(|(_, n)| *n > 0)
            .collect();
        rules.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        for (rule, n) in rules.into_iter().take(2) {
            let _ = write!(
                line,
                " {}:{:.0}%",
                rule.name(),
                n as f64 * 100.0 / prunes as f64
            );
        }
    }
    let _ = write!(line, " · elapsed {:.1}s", elapsed.as_secs_f64());
    line
}

/// A running progress reporter; dropping (or calling [`finish`]) stops the
/// sampler thread and prints the final line.
///
/// [`finish`]: Reporter::finish
pub(crate) struct Reporter {
    /// Dropping the sender wakes the sampler at once, so stopping never
    /// waits out a redraw interval.
    stop: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Reporter {
    /// Starts the sampler over the live statistics of the solves run under
    /// `run`, redrawing every `interval`. `total_slots` is the depth budget
    /// shown as `depth <max>/<total>` (three dimensions times the number of
    /// task pairs).
    pub(crate) fn start(run: CancelToken, interval: Duration, total_slots: u64) -> Self {
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("recopack-progress".to_string())
            .spawn(move || {
                let started = Instant::now();
                let mut last = (Instant::now(), 0u64);
                while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    let live = run.live().snapshot();
                    let dt = last.0.elapsed().as_secs_f64();
                    let rate = (live.nodes - last.1) as f64 / dt.max(1e-9);
                    last = (Instant::now(), live.nodes);
                    let line = status_line(&live, rate, total_slots, started.elapsed());
                    let mut err = std::io::stderr().lock();
                    let _ = write!(err, "\r\x1b[K{line}");
                    let _ = err.flush();
                }
                // Final totals, average rate, then release the line.
                let live = run.live().snapshot();
                let elapsed = started.elapsed();
                let rate = live.nodes as f64 / elapsed.as_secs_f64().max(1e-9);
                let line = status_line(&live, rate, total_slots, elapsed);
                let mut err = std::io::stderr().lock();
                let _ = writeln!(err, "\r\x1b[K{line}");
                let _ = err.flush();
            })
            .expect("progress thread spawns");
        Self {
            stop: Some(stop),
            handle: Some(handle),
        }
    }

    /// Stops the sampler and prints the final line.
    pub(crate) fn finish(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Reporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_suffixes() {
        assert_eq!(human(950), "950");
        assert_eq!(human(12_345), "12.3k");
        assert_eq!(human(1_234_567), "1.2M");
        assert_eq!(human(7_000_000_000), "7.00G");
    }

    #[test]
    fn status_line_shows_the_dominant_rules() {
        let live = LiveSnapshot {
            nodes: 1_200_000,
            conflicts: [620, 200, 10, 0],
            max_depth: 14,
            ..LiveSnapshot::default()
        };
        let line = status_line(&live, 410_000.0, 31, Duration::from_millis(12_400));
        assert!(line.contains("nodes 1.2M"), "{line}");
        assert!(line.contains("(410.0k/s)"), "{line}");
        assert!(line.contains("depth 14/31"), "{line}");
        assert!(line.contains("c2:75%"), "{line}");
        assert!(line.contains("c3:24%"), "{line}");
        assert!(!line.contains("c4:"), "only the top two rules are shown");
        assert!(line.contains("elapsed 12.4s"), "{line}");
    }

    #[test]
    fn reporter_stops_cleanly() {
        let reporter = Reporter::start(CancelToken::new(), Duration::from_millis(5), 10);
        std::thread::sleep(Duration::from_millis(20));
        reporter.finish();
        // Stopping does not wait out the redraw interval.
        let reporter = Reporter::start(CancelToken::new(), Duration::from_secs(10), 10);
        let stopping = Instant::now();
        reporter.finish();
        assert!(
            stopping.elapsed() < Duration::from_secs(1),
            "finish waited {:?} of a 10 s interval",
            stopping.elapsed()
        );
    }
}
