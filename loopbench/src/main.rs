//! `loopbench`: the end-to-end loopback benchmark of the QKBfly serving
//! path.
//!
//! ```text
//! cargo run --release --manifest-path loopbench/Cargo.toml -- \
//!     --workload qa_cold|qa_hot|sessions_journaled --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run loads the standard world and corpus, starts a `QkbNetServer`
//! in-process with every configuration at its default, and drives it
//! over loopback TCP in a closed loop from two client threads. Every
//! reply is checked against a reference the benchmark computes off the
//! serving path. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the same requests untraced and then traced, and reports the
//! per-layer breakdown. The last line of standard output is the JSON
//! result; the process exits non-zero when any check fails. An
//! end-to-end run samples `setup_s` by starting itself again with
//! `--setup-probe`, which only sets up, prints `ready` and exits.

mod engine;
mod load;
mod oracle;
mod report;
mod setup;
mod trace;
mod workloads;

use report::Outcome;
use workloads::{Run, Workload};

const USAGE: &str = "usage: loopbench --workload qa_cold|qa_hot|sessions_journaled \
                     --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Run, String> {
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be within 1..=120".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
        setup_probe: args.iter().any(|a| a == "--setup-probe"),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("loopbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    if let Err(e) = workloads::run(run, &mut out) {
        eprintln!("loopbench: {} failed: {e}", run.workload.name());
        std::process::exit(1);
    }
    if run.setup_probe {
        return;
    }
    out.print();
    if !out.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_harness_command_line() {
        let run =
            parse_args(&args("--workload qa_hot --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(run.workload, Workload::QaHot);
        assert_eq!((run.seed, run.seconds, run.trace), (7, 10, true));
        assert!(!run.setup_probe);
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload qa_cold --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload qa_cold --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload qa_cold --seconds 1 --trace 0")).is_err());
    }
}
