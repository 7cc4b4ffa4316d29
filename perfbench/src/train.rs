//! The three training workloads: set up through the public API, train
//! closed-loop jobs of [`STEPS`] iterations back to back for the measured
//! time, and check every job against the single-device reference.

use crate::host::peak_rss_bytes;
use crate::kernels;
use crate::spans::Spans;
use crate::stats::{abs_mfu, batch, describe, median, mib, SETUP_BATCH_S, SETUP_SAMPLES_PER_JOB};
use crate::workload::{calibration_twin, train_spec, Workload, LR, STEPS};
use crate::Outcome;
use slimpipe_core::exchange::{plan_round_slicing, steady_round_slices};
use slimpipe_exec::comm::{build_vocab_shards, ExchangeMap};
use slimpipe_exec::schedule::{build_schedule, PipelineKind};
use slimpipe_exec::stage::Stage;
use slimpipe_exec::{
    approx_flops_per_iteration, run_reference, try_run_pipeline_traced, verify, ExecConfig,
    RunResult, TraceSession,
};
use slimpipe_planner::{
    calibrate, compare_run, plan, ByteModel, CalibrationOpts, CostProfile, PlanOpts,
    ProfiledCostModel,
};
use slimpipe_sim::simulate;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Loss and gradient agreement with the reference: f32 reassociation
/// tolerance, as in the executor's conformance tests.
const TOL: f64 = 2e-3;
/// Repetitions of the simulator call timed for `sim.simulate_ms`.
const SIM_REPS: usize = 5;

/// Calibration settings of the committed profile (`perfbench/profile.json`),
/// spanning the slice lengths the training workloads run.
pub fn calibration_opts() -> CalibrationOpts {
    CalibrationOpts {
        token_sizes: vec![16, 64, 256],
        chunk_counts: vec![0, 3, 7],
        repeats: 3,
    }
}

/// The committed planner profile for the shared model shape. Calibration
/// is host-timed, so a fresh one would change the plan between runs.
fn committed_profile() -> Result<CostProfile, String> {
    let p = CostProfile::from_json(include_str!("../profile.json"))?;
    p.validate()?;
    Ok(p)
}

/// Durations of one set-up pass, seconds.
#[derive(Default, Clone, Copy)]
struct SetupTimes {
    plan: f64,
    stage_build: f64,
    vocab_shards: f64,
    schedule: f64,
    exchange_map: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.plan + self.stage_build + self.vocab_shards + self.schedule + self.exchange_map
    }

    fn add(&mut self, o: &SetupTimes) {
        self.plan += o.plan;
        self.stage_build += o.stage_build;
        self.vocab_shards += o.vocab_shards;
        self.schedule += o.schedule;
        self.exchange_map += o.exchange_map;
    }

    fn per_pass(self, passes: usize) -> SetupTimes {
        let k = passes as f64;
        SetupTimes {
            plan: self.plan / k,
            stage_build: self.stage_build / k,
            vocab_shards: self.vocab_shards / k,
            schedule: self.schedule / k,
            exchange_map: self.exchange_map / k,
        }
    }
}

/// One pass of the public set-up calls a training job starts with. For
/// `ragged_planned` the planner runs first and its plan becomes the
/// config the job trains.
fn setup_once(
    w: Workload,
    base: &ExecConfig,
    kind: PipelineKind,
    profile: &CostProfile,
    sp: &mut Spans,
) -> Result<(ExecConfig, usize, SetupTimes), String> {
    let mut t = SetupTimes::default();
    let cfg = if w == Workload::RaggedPlanned {
        let (planned, d) = sp.time("planner", "plan", || {
            plan(base, profile, &PlanOpts::default())
        });
        t.plan = d;
        planned
            .map_err(|e| format!("planner: {e}"))?
            .to_exec_config(base)
    } else {
        base.clone()
    };
    let (stages, d) = sp.time("exec", "Stage::build", || {
        (0..cfg.stages)
            .map(|dev| Stage::build(&cfg, dev))
            .collect::<Vec<_>>()
    });
    t.stage_build = d;
    drop(stages);
    if cfg.vocab_parallel {
        let (shards, d) = sp.time("exec", "build_vocab_shards", || build_vocab_shards(&cfg));
        t.vocab_shards = d;
        drop(shards);
    }
    let (sched, d) = sp.time("sched", "build_schedule", || build_schedule(kind, &cfg));
    t.schedule = d;
    if cfg.exchange {
        let (maps, d) = sp.time("core", "ExchangeMap", || {
            cfg.slicings()
                .iter()
                .map(|s| ExchangeMap::build_from(cfg.stages, s))
                .collect::<Vec<_>>()
        });
        t.exchange_map = d;
        drop(maps);
    }
    let ops = sched.ops.iter().map(Vec::len).sum();
    Ok((cfg, ops, t))
}

fn job(
    cfg: &ExecConfig,
    kind: PipelineKind,
    steps: usize,
    trace: &Arc<TraceSession>,
) -> Result<RunResult, String> {
    try_run_pipeline_traced(cfg, kind, steps, LR, trace).map_err(|e| e.to_string())
}

/// A job of a deterministic config must repeat the first job bit for bit.
fn same_bits(a: &RunResult, b: &RunResult) -> bool {
    let c = verify::compare(a, b);
    c.max_loss_diff == 0.0 && c.worst_grad_rel == 0.0 && a.peak_act_bytes == b.peak_act_bytes
}

/// Outcome of the timed loop: jobs attempted, the ones that failed, and
/// the first good result (every later job was checked against it).
struct Loop {
    attempted: u64,
    failed: u64,
    first: Option<RunResult>,
    walls: Vec<f64>,
    traced_walls: Vec<f64>,
    traced: Vec<(RunResult, Arc<TraceSession>)>,
}

impl Loop {
    fn record(&mut self, r: Result<RunResult, String>) -> Option<RunResult> {
        self.attempted += 1;
        match r {
            Err(e) => {
                eprintln!("job failed: {e}");
                self.failed += 1;
                None
            }
            Ok(r) => match &self.first {
                None => {
                    self.first = Some(r);
                    None
                }
                Some(f) if same_bits(&r, f) => Some(r),
                Some(_) => {
                    eprintln!("job did not repeat the first job's results bit for bit");
                    self.failed += 1;
                    None
                }
            },
        }
    }
}

/// Train jobs back to back for `seconds`, calling `between` after each.
/// With `trace`, untraced and traced jobs alternate so host drift hits
/// both alike.
fn timed_loop(
    cfg: &ExecConfig,
    kind: PipelineKind,
    seconds: u64,
    trace: bool,
    sp: &mut Spans,
    between: &mut dyn FnMut(&mut Spans) -> Result<(), String>,
) -> Result<Loop, String> {
    let mut lp = Loop {
        attempted: 0,
        failed: 0,
        first: None,
        walls: vec![],
        traced_walls: vec![],
        traced: vec![],
    };
    let off = TraceSession::disabled();
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    while lp.attempted == 0 || start.elapsed() < budget {
        let (r, wall) = sp.time("exec", "run_pipeline", || job(cfg, kind, STEPS, &off));
        if r.is_ok() {
            lp.walls.push(wall);
        }
        lp.record(r);
        if trace {
            let session = TraceSession::new();
            let (r, wall) = sp.time("exec", "run_pipeline_traced", || {
                job(cfg, kind, STEPS, &session)
            });
            if r.is_ok() {
                lp.traced_walls.push(wall);
            }
            if let Some(r) = lp.record(r) {
                lp.traced.push((r, session));
            }
        }
        between(sp)?;
    }
    Ok(lp)
}

/// Check the first job against the single-device reference; on a
/// mismatch every job counts as failed (each repeated the first exactly).
fn check_reference(lp: &mut Loop, reference: Result<RunResult, String>) {
    let Some(first) = &lp.first else { return };
    let verdict = reference.and_then(|want| {
        let c = verify::compare(first, &want);
        eprintln!(
            "reference: loss diff {:.3e}, worst gradient {:.3e} ({})",
            c.max_loss_diff, c.worst_grad_rel, c.worst_grad_name
        );
        if c.max_loss_diff < TOL && (c.worst_grad_rel as f64) < TOL {
            Ok(())
        } else {
            Err(format!("pipeline diverged from the reference: {c:?}"))
        }
    });
    if let Err(e) = verdict {
        eprintln!("{e}");
        lp.failed = lp.attempted;
    }
}

/// Worst exchange balance (heaviest ÷ lightest device load) over the
/// steady-state rounds of every microbatch's slicing.
fn exchange_balance(cfg: &ExecConfig) -> f64 {
    let p = cfg.stages;
    cfg.slicings()
        .iter()
        .flat_map(|s| {
            (0..s.n()).map(move |t| {
                plan_round_slicing(&steady_round_slices(p, s.n(), t), s).balance_ratio()
            })
        })
        .fold(1.0, f64::max)
}

pub fn run(w: Workload, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let spec = train_spec(w, seed).ok_or("not a training workload")?;
    let kind = spec.kind;
    let profile = committed_profile()?;
    let mut sp = Spans::new(trace);

    // One set-up sample, a batch of passes lasting at least SETUP_BATCH_S,
    // recorded as the time per pass. The first sample gives the config the
    // jobs train; the rest are taken between jobs.
    let mut setups = Vec::new();
    let mut sample = |sp: &mut Spans| -> Result<(ExecConfig, usize), String> {
        let mut sum = SetupTimes::default();
        let mut out = None;
        let (_, passes) = batch(SETUP_BATCH_S, || {
            let (c, ops, t) = setup_once(w, &spec.cfg, kind, &profile, sp)?;
            sum.add(&t);
            out = Some((c, ops));
            Ok::<_, String>(t.total())
        })?;
        setups.push(sum.per_pass(passes));
        Ok(out.expect("a batch runs at least one pass"))
    };
    let (cfg, sched_ops) = sample(&mut sp)?;
    let slices: Vec<usize> = (0..cfg.microbatches).map(|mb| cfg.slices_of(mb)).collect();
    eprintln!(
        "microbatch lengths {:?}, slices {slices:?}",
        (0..cfg.microbatches)
            .map(|mb| cfg.mb_seq(mb))
            .collect::<Vec<_>>()
    );
    // Untimed warm-up: a one-step job fills the buffer pool and faults in
    // the pages later jobs reuse.
    sp.time("exec", "warmup", || {
        job(&cfg, kind, 1, &TraceSession::disabled())
    })
    .0
    .map_err(|e| format!("warm-up job failed: {e}"))?;

    let mut lp = timed_loop(&cfg, kind, seconds, trace, &mut sp, &mut |sp| {
        (0..SETUP_SAMPLES_PER_JOB).try_for_each(|_| sample(sp).map(drop))
    })?;
    let rss = peak_rss_bytes()?;
    let setup_s: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    eprintln!("{}", describe("setup", "s", &setup_s));
    eprintln!("{}", describe("job", "s", &lp.walls));

    let (reference, ref_wall) = sp.time("exec", "run_reference", || {
        catch_unwind(AssertUnwindSafe(|| run_reference(&cfg, STEPS, LR)))
            .map_err(|_| "reference run panicked".to_string())
    });
    check_reference(&mut lp, reference);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let tokens = (cfg.total_tokens() * STEPS) as f64;
    let job_s = if lp.walls.is_empty() {
        f64::NAN
    } else {
        median(&lp.walls)
    };
    let peak_act = lp.first.as_ref().map_or(f64::NAN, |r| {
        r.peak_act_bytes.iter().copied().max().unwrap_or(0) as f64
    });
    if !trace {
        m.insert("tokens_per_s", tokens / job_s);
        m.insert("setup_s", median(&setup_s));
        m.insert("peak_act_mib", mib(peak_act));
        m.insert("peak_rss_mib", mib(rss));
        return Ok(Outcome {
            attempted: lp.attempted,
            failed: lp.failed,
            metrics: m,
        });
    }

    let rates = kernels::probe(&mut sp);
    m.insert("tensor.gemm_gflops", rates.gemm_gflops);
    m.insert("tensor.gemm_peak_gflops", rates.gemm_peak_gflops);
    m.insert("tensor.attn_fwd_ms", rates.attn_fwd_ms);
    m.insert("tensor.attn_bwd_ms", rates.attn_bwd_ms);

    let med = |f: &dyn Fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    m.insert("exec.stage_build_ms", 1e3 * med(&|t| t.stage_build));
    m.insert("exec.vocab_shards_ms", 1e3 * med(&|t| t.vocab_shards));
    m.insert("core.exchange_map_ms", 1e3 * med(&|t| t.exchange_map));
    m.insert("sched.generate_ms", 1e3 * med(&|t| t.schedule));
    m.insert("planner.plan_ms", 1e3 * med(&|t| t.plan));
    m.insert("sched.ops", sched_ops as f64);
    let (p, units) = (
        cfg.stages as f64,
        (0..cfg.microbatches)
            .map(|mb| cfg.slices_of(mb))
            .sum::<usize>() as f64,
    );
    m.insert("sched.bubble_analytic", (p - 1.0) / (units + p - 1.0));
    if cfg.exchange {
        m.insert("core.exchange_balance", exchange_balance(&cfg));
    }

    // The profiled simulation the planner prices plans with, of the
    // schedule this workload runs.
    let sched = build_schedule(kind, &cfg);
    let cost = ProfiledCostModel::new(&sched, &profile, cfg.layers_per_stage(), cfg.slicings());
    let sims: Vec<f64> = (0..SIM_REPS)
        .map(|_| sp.time("sim", "simulate", || simulate(&cost)).1)
        .collect();
    m.insert("sim.simulate_ms", 1e3 * median(&sims));
    if w == Workload::RaggedPlanned {
        let twin = calibration_twin();
        let (_, d) = sp.time("planner", "calibrate", || {
            calibrate(&twin, &calibration_opts())
        });
        m.insert("planner.calibrate_s", d);
    }

    if lp.walls.is_empty() || lp.traced.is_empty() {
        return Err("no clean untraced and traced job pair to attribute".into());
    }
    let untraced = median(&lp.walls);
    m.insert("obs.trace_overhead", median(&lp.traced_walls) / untraced);
    let flops = approx_flops_per_iteration(&cfg);
    m.insert(
        "exec.abs_mfu",
        abs_mfu(flops, STEPS, untraced, cfg.stages, rates.gemm_peak_gflops),
    );
    m.insert("exec.scaling_eff", ref_wall / (p * untraced));

    let predicted_peak = ByteModel::from_config(&cfg).worst_predicted_peak(&sched, &cfg.slicings());
    m.insert(
        "core.peak_model_err",
        (predicted_peak - peak_act).abs() / peak_act,
    );

    // Per traced job, then the median over traced jobs.
    let mut per_job: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let steps = STEPS as f64;
    for (r, session) in &lp.traced {
        let rm = &r.metrics;
        let c = &rm.counters;
        let mut put = |k: &'static str, v: f64| per_job.entry(k).or_default().push(v);
        put(
            "exec.busy_s.stage0",
            rm.stage_busy_s.first().copied().unwrap_or(0.0) / steps,
        );
        put(
            "exec.busy_s.stage1",
            rm.stage_busy_s.get(1).copied().unwrap_or(0.0) / steps,
        );
        put(
            "exec.exchange_wait_s",
            rm.exchange_wait_s.iter().sum::<f64>() / steps,
        );
        put("exec.overlap_eff", rm.overlap_efficiency.unwrap_or(0.0));
        put("exec.bubble", rm.measured_bubble.unwrap_or(0.0));
        put(
            "exec.iter_makespan_s",
            rm.measured_makespan_s.unwrap_or(0.0) / steps,
        );
        put("exec.rel_mfu", rm.mfu.unwrap_or(0.0));
        put(
            "exec.peak_act_mib.stage0",
            mib(r.peak_act_bytes.first().copied().unwrap_or(0) as f64),
        );
        put(
            "exec.peak_act_mib.stage1",
            mib(r.peak_act_bytes.get(1).copied().unwrap_or(0) as f64),
        );
        put("exec.posted_sends", r.posted_sends as f64);
        put("exec.watchdog_wakeups", c.watchdog_wakeups as f64);
        let fs = &r.fault_stats;
        put(
            "exec.retries",
            (fs.exchange_retries + fs.local_fallbacks + fs.skipped_microbatches) as f64,
        );
        let takes = (c.pool_hits + c.pool_misses) as f64;
        put(
            "tensor.pool_hit_ratio",
            if takes > 0.0 {
                c.pool_hits as f64 / takes
            } else {
                0.0
            },
        );
        put("tensor.weight_packs", c.weight_packs as f64);
        put("obs.spans_dropped", c.spans_dropped as f64);
        // The planner prices SlimPipe schedules only.
        if kind == PipelineKind::SlimPipe {
            let (cmp, _) = sp.time("planner", "compare_run", || {
                compare_run(&cfg, &profile, &session.report())
            });
            let c = cmp?;
            put("planner.makespan_ratio", c.makespan_ratio);
            put("planner.unit_err", c.mean_abs_unit_error);
        }
    }
    for (k, v) in per_job {
        m.insert(k, median(&v));
    }
    eprint!("{}", sp.table());
    Ok(Outcome {
        attempted: lp.attempted,
        failed: lp.failed,
        metrics: m,
    })
}
