//! `run`: every workload `R` times untraced plus once traced, each run in
//! a fresh child process (so resident memory and allocator state start
//! clean), aggregated into one result file with an environment stamp.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use mmdb_types::{from_json, to_json_pretty, Value};

use crate::data;
use crate::env;
use crate::spec::{self, Workload};
use crate::stats;

pub struct Opts {
    pub workloads: Vec<&'static Workload>,
    pub seed: u64,
    pub runs: usize,
    pub seconds: u64,
    /// The smoke mode: children time one set-up only.
    pub quick: bool,
    pub out: PathBuf,
}

/// One child run, parsed.
struct Child {
    correct: bool,
    attempted: i64,
    failed: i64,
    metrics: Vec<(String, f64)>,
    info: Vec<(String, String)>,
}

impl Child {
    fn info(&self, key: &str) -> Option<&str> {
        self.info
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn info_f64(&self, key: &str) -> Option<f64> {
        self.info(key)?.parse().ok()
    }
}

fn run_child(w: &Workload, seed: u64, opts: &Opts, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = Command::new(exe)
        .args([
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &opts.seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(opts.quick.then_some("--quick"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let pid = child.id();
    let output = child.wait_with_output().map_err(|e| format!("wait: {e}"));
    // Whatever became of the child, its scratch directories go.
    env::sweep_child(pid);
    let output = output?;
    if !output.status.success() {
        return Err(format!(
            "{} (seed {seed}, trace {trace}) exited with {}",
            w.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let v = from_json(last).map_err(|e| format!("child's last line: {e}"))?;
    let metrics = v
        .get_field("metrics")
        .as_object()
        .map_err(|_| "child's result has no metrics".to_string())?
        .iter()
        .filter_map(|(k, m)| Some((k.to_string(), m.get_field("value").as_f64().ok()?)))
        .collect();
    let info = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("INFO "))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok(Child {
        correct: v.get_field("correct").as_bool().unwrap_or(false),
        attempted: v.get_field("attempted").as_int().unwrap_or(0),
        failed: v.get_field("failed").as_int().unwrap_or(0),
        metrics,
        info,
    })
}

fn environment(opts: &Opts, data_fs: &str, pinned: bool) -> Value {
    let op_counts = Value::object(opts.workloads.iter().map(|w| {
        let counts = data::op_counts(w.kind, opts.seconds);
        (
            w.name,
            Value::object(counts.into_iter().map(|(k, n)| (k, Value::int(n as i64)))),
        )
    }));
    Value::object([
        ("nproc", Value::int(env::nproc() as i64)),
        ("loadavg", Value::str(env::loadavg())),
        ("git_rev", Value::str(env::git_rev())),
        ("rustc", Value::str(env::rustc_version())),
        ("seed", Value::int(opts.seed as i64)),
        ("seconds", Value::int(opts.seconds as i64)),
        ("untraced_runs", Value::int(opts.runs as i64)),
        (
            "setup_samples",
            Value::int(if opts.quick {
                1
            } else {
                1 + spec::SETUP_ROUNDS.len() as i64
            }),
        ),
        ("rounds", Value::int(spec::ROUNDS as i64)),
        (
            "scales",
            Value::object([
                ("small", Value::float(spec::SMALL_SCALE)),
                ("big_shards", Value::int(spec::BIG_SHARDS as i64)),
                ("big_shard_scale", Value::float(spec::BIG_SHARD_SCALE)),
            ]),
        ),
        ("op_counts", op_counts),
        (
            "generator_threads",
            Value::int(spec::GENERATOR_THREADS as i64),
        ),
        ("server_workers", Value::int(spec::SERVER_WORKERS as i64)),
        // Whether every run's threads got the CPUs they asked for (each
        // workload lists which).
        ("pinned", Value::Bool(pinned)),
        ("data_fs", Value::str(data_fs)),
        ("flush_policy", Value::str(spec::FLUSH_POLICY)),
        (
            "root_fs_fsync_probe_us",
            Value::float(env::fsync_probe_us()),
        ),
    ])
}

/// Run everything, print every metric, write the result file. Returns
/// whether every run's checks passed.
pub fn run_all(opts: &Opts) -> Result<bool, String> {
    let layers = spec::per_layer();
    let mut workloads = Vec::new();
    let mut all_correct = true;
    let mut data_fs = String::from("unknown");
    let mut all_pinned = true;
    for w in &opts.workloads {
        let mut runs = Vec::new();
        for r in 0..opts.runs {
            eprintln!(
                "== {} untraced run {}/{} (seed {})",
                w.name,
                r + 1,
                opts.runs,
                opts.seed + r as u64
            );
            runs.push(run_child(w, opts.seed + r as u64, opts, false)?);
        }
        eprintln!("== {} traced run (seed {})", w.name, opts.seed);
        let traced = run_child(w, opts.seed, opts, true)?;
        if let Some(fs) = traced.info("data_fs") {
            data_fs = fs.to_string();
        }
        all_correct &= traced.correct && runs.iter().all(|r| r.correct);
        let pinned = runs
            .iter()
            .chain([&traced])
            .all(|r| r.info("pinned") == Some("true"));
        all_pinned &= pinned;
        if !pinned {
            eprintln!(
                "== {}: sched_setaffinity was refused; threads ran unpinned",
                w.name
            );
        }

        println!("\n{} — {}", w.name, w.why);
        println!(
            "  {:<26} {:>5} {:>7} {:>6} {:>14}  values",
            "end-to-end", "unit", "better", "bound", "median"
        );
        let mut end_to_end = Vec::new();
        for m in &spec::END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(k, _)| k == m.name).map(|(_, v)| *v))
                .collect();
            // The same runs' values as the clock read them, before the
            // speed correction.
            let values_raw: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.info_f64(&format!("raw.{}", m.name)))
                .collect();
            let bound = spec::bound_for(w.kind, m);
            let median = stats::median(&mut values.clone());
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "  {:<26} {:>5} {:>7} {:>6} {:>14.4}  {}",
                m.name,
                m.unit,
                m.better.as_str(),
                bound,
                median,
                shown.join(" ")
            );
            end_to_end.push((
                m.name,
                Value::object([
                    ("unit", Value::str(m.unit)),
                    ("better", Value::str(m.better.as_str())),
                    ("bound", Value::float(bound)),
                    ("median", Value::float(median)),
                    (
                        "spread",
                        Value::float(stats::quartile_spread(&values).unwrap_or(0.0)),
                    ),
                    ("values", Value::array(values.into_iter().map(Value::float))),
                    (
                        "values_raw",
                        Value::array(values_raw.into_iter().map(Value::float)),
                    ),
                ]),
            ));
        }
        println!(
            "  {:<34} {:>5} {:>7} {:>16}",
            "per-layer (traced run)", "unit", "better", "value"
        );
        let mut per_layer = Vec::new();
        for m in &layers {
            let value = traced
                .metrics
                .iter()
                .find(|(k, _)| *k == m.name)
                .map_or(0.0, |(_, v)| *v);
            println!(
                "  {:<34} {:>5} {:>7} {:>16.4}",
                m.name,
                m.unit,
                m.better.as_str(),
                value
            );
            per_layer.push((
                m.name.clone(),
                Value::object([
                    ("unit", Value::str(m.unit)),
                    ("better", Value::str(m.better.as_str())),
                    ("value", Value::float(value)),
                ]),
            ));
        }
        let ints = |f: fn(&Child) -> i64| Value::array(runs.iter().map(|r| Value::int(f(r))));
        let factors = |key: &str| {
            Value::array(
                runs.iter()
                    .filter_map(|r| r.info_f64(key))
                    .map(Value::float),
            )
        };
        workloads.push((
            w.name,
            Value::object([
                ("why", Value::str(w.why)),
                (
                    "correct",
                    Value::Bool(traced.correct && runs.iter().all(|r| r.correct)),
                ),
                ("attempted", ints(|r| r.attempted)),
                ("failed", ints(|r| r.failed)),
                ("cpus", Value::str(traced.info("cpus").unwrap_or("unknown"))),
                ("pinned", Value::Bool(pinned)),
                ("speed_factor_min", factors("speed_factor_min")),
                ("speed_factor_median", factors("speed_factor_median")),
                ("speed_factor_max", factors("speed_factor_max")),
                ("traced_attempted", Value::int(traced.attempted)),
                ("traced_failed", Value::int(traced.failed)),
                (
                    "info",
                    Value::object(traced.info.iter().map(|(k, v)| (k.as_str(), Value::str(v)))),
                ),
                ("end_to_end", Value::object(end_to_end)),
                ("per_layer", Value::object(per_layer)),
            ]),
        ));
    }
    let file = Value::object([
        ("benchmark", Value::str("mmdb-benchmark")),
        ("environment", environment(opts, &data_fs, all_pinned)),
        ("workloads", Value::object(workloads)),
    ]);
    if let Some(parent) = opts.out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&opts.out, to_json_pretty(&file) + "\n")
        .map_err(|e| format!("{}: {e}", opts.out.display()))?;
    println!("\nresult file: {}", opts.out.display());
    Ok(all_correct)
}
