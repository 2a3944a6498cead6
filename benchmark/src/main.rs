//! The benchmark of record for mmdb. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! mmdb-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]   one run; last stdout line is the result
//! mmdb-benchmark run [--workload W] [--seed N] [--runs R] [--seconds S] [--quick] [--out FILE]
//! mmdb-benchmark compare A.json B.json
//! mmdb-benchmark spec-json                                       print BENCHMARK.json
//! ```

mod access;
mod compare;
mod data;
mod env;
mod orchestrate;
mod post;
mod reference;
mod runner;
mod sections;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  mmdb-benchmark --workload <query_b|txn_c|read_wire_p|mixed_wire> --seed <n> --seconds <n> --trace <0|1> [--quick]
  mmdb-benchmark run [--workload <name>] [--seed <n>] [--runs <n>] [--seconds <n>] [--quick] [--out <file>]
  mmdb-benchmark compare <base.json> <other.json>
  mmdb-benchmark spec-json";

/// `--name value` pairs and bare flags, in order.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], bare: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{a}'"))?;
            if bare.contains(&name) {
                out.push((name.to_string(), None));
            } else {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                out.push((name.to_string(), Some(value.clone())));
            }
        }
        Ok(Flags(out))
    }

    fn take(&mut self, name: &str) -> Option<Option<String>> {
        let i = self.0.iter().position(|(n, _)| n == name)?;
        Some(self.0.remove(i).1)
    }

    fn number<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.take(name) {
            Some(Some(v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: '{v}' is not a number")),
            _ => Ok(None),
        }
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            Some((name, _)) => Err(format!("unknown option --{name}")),
            None => Ok(()),
        }
    }
}

fn workload_named(name: &str) -> Result<&'static spec::Workload, String> {
    spec::workload(name).ok_or_else(|| format!("unknown workload '{name}'"))
}

fn single_run(args: &[String]) -> Result<ExitCode, String> {
    // `--quick` is how `run --quick` tells its children to time one set-up.
    let mut flags = Flags::parse(args, &["quick"])?;
    fn required<T>(v: Option<T>, name: &str) -> Result<T, String> {
        v.ok_or_else(|| format!("--{name} is required"))
    }
    let workload = workload_named(&required(flags.take("workload").flatten(), "workload")?)?;
    let seed: u64 = required(flags.number("seed")?, "seed")?;
    let seconds: u64 = required(flags.number("seconds")?, "seconds")?;
    let trace: u8 = required(flags.number("trace")?, "trace")?;
    let quick = flags.take("quick").is_some();
    flags.finish()?;
    if seconds == 0 || seconds > 60 || trace > 1 {
        return Err("--seconds is 1..=60 and --trace is 0 or 1".into());
    }
    let args = runner::Args {
        workload,
        seed,
        seconds,
        trace: trace == 1,
        quick,
    };
    let outcome = runner::run(&args).map_err(|e| format!("{}: {e}", workload.name))?;

    let units: std::collections::HashMap<String, &str> = spec::END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .chain(spec::per_layer().into_iter().map(|m| (m.name, m.unit)))
        .collect();
    for reason in &outcome.tally.reasons {
        println!("FAILED {reason}");
    }
    for (k, v) in &outcome.info {
        println!("INFO {k}={v}");
    }
    let mut metrics = Vec::new();
    for (name, value) in &outcome.metrics {
        let unit = units
            .get(name)
            .ok_or_else(|| format!("'{name}' is not in the metric tables"))?;
        println!("{name:<34} {value:>18.4} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        metrics.join(", ")
    );
    Ok(ExitCode::SUCCESS)
}

fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let mut flags = Flags::parse(args, &["quick"])?;
    let quick = flags.take("quick").is_some();
    let workloads = match flags.take("workload").flatten() {
        Some(name) => vec![workload_named(&name)?],
        None => spec::WORKLOADS.iter().collect(),
    };
    let seed = flags.number("seed")?.unwrap_or(spec::DEFAULT_SEED);
    let opts = orchestrate::Opts {
        workloads,
        seed,
        runs: flags
            .number("runs")?
            .unwrap_or(if quick { 1 } else { spec::DEFAULT_RUNS }),
        seconds: flags.number("seconds")?.unwrap_or(if quick {
            spec::QUICK_SECONDS
        } else {
            spec::DEFAULT_SECONDS
        }),
        quick,
        out: flags.take("out").flatten().map_or_else(
            || env::results_tmp().join(format!("bench-seed{seed}.json")),
            PathBuf::from,
        ),
    };
    flags.finish()?;
    if opts.runs == 0 || opts.seconds == 0 || opts.seconds > 60 {
        return Err("--runs is at least 1 and --seconds is 1..=60".into());
    }
    let correct = orchestrate::run_all(&opts)?;
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => match &args[1..] {
            [base, other] => {
                let pass = compare::compare_files(base.as_ref(), other.as_ref())?;
                Ok(if pass {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                })
            }
            _ => Err("compare takes two result files".into()),
        },
        Some("spec-json") if args.len() == 1 => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some(a) if a.starts_with("--") => single_run(args),
        _ => Err("missing or unknown subcommand".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mmdb-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
