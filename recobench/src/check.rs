//! Correctness of every operation's output.

use recopack_model::format::parse_placement;
use recopack_model::{Chip, Instance};

use crate::instances::{load, Case, Command, Expect};

/// Re-parses placement text against `instance` (names included) and
/// verifies it geometrically.
pub fn verify_placement(text: &str, instance: &Instance) -> Result<(), String> {
    let placement =
        parse_placement(text, instance).map_err(|e| format!("unparsable placement: {e}"))?;
    placement
        .verify(instance)
        .map_err(|e| format!("placement fails verification: {e}"))
}

/// The number between `prefix` and `suffix` in `line`.
fn number_between(line: &str, prefix: &str, suffix: char) -> Option<u64> {
    let rest = line.split_once(prefix)?.1;
    rest.split(suffix).next()?.trim().parse().ok()
}

/// What one `recopack_cli::run` output (run with `--emit-placement`)
/// claims: the answer and, when it carries a placement, the container the
/// placement must fit and its `place` lines.
pub struct Claim {
    /// The answer.
    pub answer: Expect,
    /// Container instance and placement text.
    pub placed: Option<(Instance, String)>,
}

/// Reads the claim of one CLI output for `case`.
pub fn claim(case: &Case, output: &str) -> Result<Claim, String> {
    let instance = load(&case.text);
    let first = output.lines().next().unwrap_or("");
    let (answer, target) = match case.command {
        Command::Solve if first.starts_with("infeasible") => (Expect::Infeasible, None),
        Command::Solve if first.starts_with("feasible") => (Expect::Feasible, Some(instance)),
        Command::Solve => return Err(format!("unexpected solve output {first:?}")),
        Command::Bmp => {
            let side = number_between(first, ": ", 'x')
                .ok_or_else(|| format!("unexpected bmp output {first:?}"))?;
            (
                Expect::Side(side),
                Some(instance.with_chip(Chip::square(side))),
            )
        }
        Command::Spp => {
            let makespan = number_between(first, ": ", 'c')
                .ok_or_else(|| format!("unexpected spp output {first:?}"))?;
            (
                Expect::Makespan(makespan),
                Some(instance.with_horizon(makespan)),
            )
        }
    };
    let placed = target.map(|target| {
        let places: String = output
            .lines()
            .filter(|l| l.starts_with("place "))
            .flat_map(|l| [l, "\n"])
            .collect();
        (target, places)
    });
    Ok(Claim { answer, placed })
}

/// Checks one CLI reply (its output, or its error message) against the
/// case: the answer must be the expected one, and every placement must
/// re-parse and verify on the container it claims.
pub fn check_cli(case: &Case, reply: &Result<String, String>) -> Result<(), String> {
    let output = match (reply, case.expect) {
        (Err(_), Expect::Unreachable) => return Ok(()),
        (Err(e), _) => return Err(format!("{}: {e}", case.name)),
        (Ok(output), _) => output,
    };
    let claim = claim(case, output).map_err(|e| format!("{}: {e}", case.name))?;
    if claim.answer != case.expect {
        return Err(format!(
            "{}: expected {:?}, got {:?}",
            case.name, case.expect, claim.answer
        ));
    }
    match claim.placed {
        Some((target, places)) => {
            verify_placement(&places, &target).map_err(|e| format!("{}: {e}", case.name))
        }
        None => Ok(()),
    }
}

/// Checks one finished `opp` job: its outcome must be the expected
/// verdict, and a feasible placement must re-parse against the
/// *submitter's own* instance text and verify.
pub fn check_served(
    expect: Expect,
    submitted: &str,
    status: &str,
    outcome: &str,
    placement: Option<&str>,
) -> Result<(), String> {
    let got = match (status, outcome) {
        ("done", "feasible") => Expect::Feasible,
        ("done", "infeasible") => Expect::Infeasible,
        _ => return Err(format!("job ended {status} with outcome {outcome:?}")),
    };
    if got != expect {
        return Err(format!("expected {expect:?}, got {got:?}"));
    }
    match (got, placement) {
        (Expect::Feasible, Some(text)) => verify_placement(text, &load(submitted)),
        (Expect::Feasible, None) => Err("feasible job without a placement".to_string()),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::pipeline_cases;

    /// Runs `case` through the CLI from a directory of its own per `test`.
    fn run(test: &str, case: &Case) -> Result<String, String> {
        let dir = crate::WorkDir::root().join(format!("{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("case.rpk");
        std::fs::write(&path, &case.text).expect("write");
        let args: Vec<String> = [
            case.command.name(),
            path.to_str().expect("utf-8"),
            "--emit-placement",
        ]
        .map(str::to_string)
        .to_vec();
        let out = recopack_cli::run(&args).map_err(|e| e.message);
        std::fs::remove_dir_all(&dir).expect("cleanup");
        out
    }

    #[test]
    fn paper_answers_pass_and_wrong_expectations_fail() {
        let cases = pipeline_cases(1);
        for case in cases.iter().filter(|c| c.kind == "paper") {
            let out = run("paper", case);
            assert_eq!(check_cli(case, &out), Ok(()), "{}", case.name);
            let mut wrong = case.clone();
            wrong.expect = match case.expect {
                Expect::Feasible => Expect::Infeasible,
                Expect::Infeasible => Expect::Feasible,
                Expect::Side(s) => Expect::Side(s + 1),
                Expect::Makespan(m) => Expect::Makespan(m + 1),
                Expect::Unreachable => Expect::Side(1),
            };
            assert!(check_cli(&wrong, &out).is_err(), "{}", case.name);
        }
    }

    #[test]
    fn an_unreachable_deadline_must_fail() {
        let cases = pipeline_cases(1);
        let case = cases
            .iter()
            .find(|c| c.expect == Expect::Unreachable)
            .expect("some draw has a horizon below its critical path");
        let reply = run("unreachable", case);
        assert!(reply.is_err());
        assert_eq!(check_cli(case, &reply), Ok(()));
        assert!(check_cli(case, &Ok("minimal square chip for horizon 3: 4x4".into())).is_err());
    }

    #[test]
    fn a_broken_placement_is_caught() {
        let cases = pipeline_cases(1);
        let case = cases.iter().find(|c| c.name == "de_32x6").expect("de case");
        let out = run("broken", case).expect("de is feasible");
        // Stack every task at the origin.
        let broken: String = out
            .lines()
            .map(|l| match l.strip_prefix("place ") {
                Some(rest) => format!("place {} 0 0 0", rest.split(' ').next().unwrap_or("")),
                None => l.to_string(),
            })
            .flat_map(|l| [l, "\n".to_string()])
            .collect();
        assert!(check_cli(case, &Ok(broken)).is_err());
    }
}
