//! The repository benchmark: three training jobs and one planning query,
//! driven through the public API of the SlimPipe crates.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench calibrate-profile      # prints a fresh perfbench/profile.json
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! for `--trace 0`, the per-layer metrics for `--trace 1`. The line before
//! it records the host and kernel regime. Progress, timing summaries and
//! the per-layer self-time table go to standard error. See `README.md`.

mod host;
mod kernels;
mod plan70b;
mod spans;
mod stats;
mod train;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use workload::Workload;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("tokens_per_s", "tok/s"),
    ("setup_s", "s"),
    ("peak_act_mib", "MiB"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload does not exercise reads 0 (see `README.md`).
const PER_LAYER: [(&str, &str); 38] = [
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.gemm_peak_gflops", "GFLOP/s"),
    ("tensor.attn_fwd_ms", "ms"),
    ("tensor.attn_bwd_ms", "ms"),
    ("tensor.pool_hit_ratio", "ratio"),
    ("tensor.weight_packs", "count"),
    ("exec.busy_s.stage0", "s"),
    ("exec.busy_s.stage1", "s"),
    ("exec.exchange_wait_s", "s"),
    ("exec.overlap_eff", "ratio"),
    ("exec.bubble", "ratio"),
    ("exec.iter_makespan_s", "s"),
    ("exec.rel_mfu", "ratio"),
    ("exec.abs_mfu", "ratio"),
    ("exec.scaling_eff", "ratio"),
    ("exec.peak_act_mib.stage0", "MiB"),
    ("exec.peak_act_mib.stage1", "MiB"),
    ("exec.posted_sends", "count"),
    ("exec.watchdog_wakeups", "count"),
    ("exec.retries", "count"),
    ("exec.stage_build_ms", "ms"),
    ("exec.vocab_shards_ms", "ms"),
    ("core.exchange_map_ms", "ms"),
    ("core.exchange_balance", "ratio"),
    ("core.peak_model_err", "ratio"),
    ("sched.generate_ms", "ms"),
    ("sched.ops", "count"),
    ("sched.bubble_analytic", "ratio"),
    ("planner.plan_ms", "ms"),
    ("planner.calibrate_s", "s"),
    ("planner.makespan_ratio", "ratio"),
    ("planner.unit_err", "ratio"),
    ("sim.simulate_ms", "ms"),
    ("parallel.candidates", "count"),
    ("parallel.oom_share", "ratio"),
    ("parallel.estimate_us_per_candidate", "us"),
    ("obs.trace_overhead", "ratio"),
    ("obs.spans_dropped", "count"),
];

/// What one run of a workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            k @ ("--workload" | "--seed" | "--seconds" | "--trace") => k,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        if flags.insert(key, value).is_some() {
            return Err(format!("{key} given twice"));
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = Workload::parse(get("--workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", flags["--workload"]))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Fill in every metric of `table` (0 for a layer the workload does not
/// exercise), reject names outside it, and render the result line.
fn result_json(out: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    if let Some(k) = out
        .metrics
        .keys()
        .find(|k| !table.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {k} is not declared"));
    }
    let mut correct = out.failed == 0;
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let mut v = out.metrics.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            eprintln!("metric {name} is not finite ({v})");
            correct = false;
            v = 0.0;
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

fn run(args: &Args) -> Result<String, String> {
    // Kernel pool width 1: the two stage threads are the parallelism, so
    // busy threads equal the two stages rather than oversubscribing.
    rayon::set_num_threads(1);
    println!(
        "{}",
        host::metadata_json(args.workload.name(), args.seed, args.seconds, args.trace)
    );
    let out = match args.workload {
        Workload::Plan70B => plan70b::run(args.seconds, args.trace)?,
        w => train::run(w, args.seed, args.seconds, args.trace)?,
    };
    eprintln!(
        "{}: {} of {} operations failed (failed_share {})",
        args.workload.name(),
        out.failed,
        out.attempted,
        stats::failed_share(out.failed, out.attempted)
    );
    result_json(&out, if args.trace { &PER_LAYER } else { &END_TO_END })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("calibrate-profile") {
        rayon::set_num_threads(1);
        let profile =
            slimpipe_planner::calibrate(&workload::calibration_twin(), &train::calibration_opts());
        print!("{}", profile.to_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args(
            "--workload short_1f1b --seed 9 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Short1F1B, 9, 12, true)
        );
        for bad in [
            "--workload short_1f1b --seed 9 --seconds 12",
            "--workload nope --seed 9 --seconds 12 --trace 0",
            "--workload plan_70b --seed x --seconds 12 --trace 0",
            "--workload plan_70b --seed 1 --seconds 12 --trace 2",
            "--workload plan_70b --seed 1 --seconds 0 --trace 0",
            "--workload plan_70b --seed 1 --seed 2 --seconds 3 --trace 0",
            "--workload plan_70b --seed 1 --seconds 3 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_every_declared_metric() {
        let mut metrics = BTreeMap::new();
        metrics.insert("exec.bubble", 0.07);
        let out = Outcome {
            attempted: 3,
            failed: 0,
            metrics,
        };
        let line = result_json(&out, &PER_LAYER).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        for (name, unit) in PER_LAYER {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        assert!(line.contains("\"exec.bubble\": {\"value\": 0.07, "));
    }

    #[test]
    fn non_finite_or_undeclared_metrics_are_refused() {
        let mut metrics = BTreeMap::new();
        metrics.insert("tokens_per_s", f64::NAN);
        let out = Outcome {
            attempted: 1,
            failed: 0,
            metrics,
        };
        assert!(result_json(&out, &END_TO_END)
            .unwrap()
            .starts_with("{\"correct\": false"));
        let mut metrics = BTreeMap::new();
        metrics.insert("exec.bubble", 0.1);
        let out = Outcome {
            attempted: 1,
            failed: 0,
            metrics,
        };
        assert!(result_json(&out, &END_TO_END).is_err());
    }

    /// `BENCHMARK.json` at the repository root declares exactly these
    /// metric names and units.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = json.matches("\"name\": \"").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
    }
}
