//! `perfledger`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, sets the workload up
//! several times (reporting the fastest set-up), then runs operations
//! for the given seconds, checking every output. With `--trace 0` the
//! last stdout line carries the end-to-end metrics; with `--trace 1`
//! it carries the per-layer metrics of a traced run. The line before
//! it is a detail record: host, executed arm, set-up phases, sample
//! counts and, for traced runs, every per-layer row. See README.md.

mod arm;
mod host;
mod infer;
mod inputs;
mod layers;
mod ledger;
mod out;
mod report;
mod serve;
mod setup;
mod stats;

use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfledger --workload <caffenet-b1|googlenet-b8|caffenet-int8-b8|serve-replay> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_: std::num::ParseIntError| format!("bad value for {flag}: {value}");
        let bad_f = |_: std::num::ParseFloatError| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(bad_f)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let output = if args.workload == serve::NAME {
        serve::run(&args)
    } else if let Some(spec) = infer::SPECS.iter().find(|s| s.name == args.workload) {
        infer::run(spec, &args)
    } else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    println!("{}", output.detail.render());
    println!("{}", output.result_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse(&argv(
            "--workload serve-replay --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-replay", 3, 10.0, true)
        );
        assert!(parse(&argv("--workload x --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse(&argv("--workload x --seed 3 --trace 0")).is_err());
    }
}
