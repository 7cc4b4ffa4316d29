//! `plan_70b`: the configuration search behind
//! `examples/plan_70b_long_context.rs` — Llama 70B on 256 Hopper GPUs at
//! 4M tokens per iteration, SlimPipe against Megatron-LM, at 256K context
//! without offload and at 1M context with offload levels 0/50/75/90%.

use crate::host::peak_rss_bytes;
use crate::kernels;
use crate::spans::Spans;
use crate::stats::{batch, describe, median, mib, SETUP_BATCH_S, SETUP_SAMPLES_PER_JOB};
use crate::Outcome;
use slimpipe_cluster::{Cluster, Efficiency};
use slimpipe_model::{ModelConfig, GIB};
use slimpipe_parallel::config::ParallelConfig;
use slimpipe_parallel::search::{best_config, candidate_configs, SearchOptions, SearchOutcome};
use slimpipe_parallel::{estimate, EstimateError, SystemKind};
use slimpipe_sim::{simulate, CostModel, PipelineEnv};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const GPUS: usize = 256;
const TOKENS_PER_ITER: u64 = 4 << 20;

/// One `best_config` call.
struct Query {
    system: SystemKind,
    seq: u64,
    opts: SearchOptions,
}

fn queries() -> Vec<Query> {
    let mut out = Vec::new();
    for (seq_k, offload) in [(256u64, vec![0.0]), (1024, vec![0.0, 0.5, 0.75, 0.9])] {
        for system in [SystemKind::SlimPipe, SystemKind::MegatronLM] {
            out.push(Query {
                system,
                seq: seq_k * 1024,
                opts: SearchOptions {
                    offload_levels: offload.clone(),
                    ..SearchOptions::default()
                },
            });
        }
    }
    out
}

/// Repetitions of the simulator call timed for `sim.simulate_ms`.
const SIM_REPS: usize = 5;

/// The known winners, `(system, context tokens, configuration, MFU in %
/// to one decimal)`.
const WINNERS: [(SystemKind, u64, &str, f64); 4] = [
    (
        SystemKind::SlimPipe,
        256 * 1024,
        "t=4 c=2 e=1 d=2 p=16 SlimPipe ckpt=None offload=0%",
        47.1,
    ),
    (
        SystemKind::MegatronLM,
        256 * 1024,
        "t=8 c=8 e=1 d=2 p=2 Interleaved 1F1B ckpt=Selective offload=0%",
        41.2,
    ),
    (
        SystemKind::SlimPipe,
        1024 * 1024,
        "t=4 c=2 e=1 d=2 p=16 SlimPipe ckpt=None offload=75%",
        46.0,
    ),
    (
        SystemKind::MegatronLM,
        1024 * 1024,
        "t=8 c=8 e=1 d=2 p=2 Interleaved 1F1B ckpt=Selective offload=90%",
        40.5,
    ),
];

/// The inputs every query shares.
struct Setup {
    model: ModelConfig,
    cluster: Cluster,
    queries: Vec<Query>,
    /// Candidate configurations per query.
    candidates: Vec<Vec<ParallelConfig>>,
}

fn setup() -> Setup {
    let model = ModelConfig::llama_70b();
    let cluster = Cluster::hopper_nvlink();
    let queries = queries();
    let candidates = queries
        .iter()
        .map(|q| candidate_configs(&model, q.system, GPUS, q.seq, &cluster, &q.opts))
        .collect();
    Setup {
        model,
        cluster,
        queries,
        candidates,
    }
}

/// Threads answering the queries of one job: as many as the training
/// workloads' pipeline stages, so every workload keeps two cores busy.
const WORKERS: usize = 2;

/// Run every query once: one timed job of this workload. The queries go
/// to [`WORKERS`] threads in list order, each taking the next unanswered
/// query, so the two heavy SlimPipe searches run side by side.
fn run_queries(s: &Setup) -> Vec<SearchOutcome> {
    let next = AtomicUsize::new(0);
    let mut answered: Vec<(usize, SearchOutcome)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(q) = s.queries.get(i) else {
                            break mine;
                        };
                        let out = best_config(
                            &s.model,
                            q.system,
                            GPUS,
                            q.seq,
                            TOKENS_PER_ITER,
                            &s.cluster,
                            &q.opts,
                        );
                        mine.push((i, out));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a planning worker panicked"))
            .collect()
    });
    answered.sort_by_key(|(i, _)| *i);
    answered.into_iter().map(|(_, out)| out).collect()
}

/// Check every query's winner against the known answer.
fn check(s: &Setup, outcomes: &[SearchOutcome]) -> Result<(), String> {
    for (q, out) in s.queries.iter().zip(outcomes) {
        let (.., want, mfu) = WINNERS
            .iter()
            .find(|w| w.0 == q.system && w.1 == q.seq)
            .expect("every query has a known winner");
        let SearchOutcome::Found(e) = out else {
            return Err(format!(
                "{:?} at {} tokens found no configuration",
                q.system, q.seq
            ));
        };
        let got = e.cfg.describe();
        let got_mfu = (e.mfu * 1000.0).round() / 10.0;
        if got != *want || got_mfu != *mfu {
            return Err(format!(
                "{:?} at {}: got {got} ({got_mfu}%), want {want} ({mfu}%)",
                q.system, q.seq
            ));
        }
    }
    Ok(())
}

/// Modelled activation bytes (everything but model state) on the busiest
/// GPU of the 1M-context SlimPipe winner — the paper's memory claim at
/// full scale, in bytes.
fn winner_act_bytes(s: &Setup, outcomes: &[SearchOutcome]) -> f64 {
    let (_, out) = s
        .queries
        .iter()
        .zip(outcomes)
        .find(|(q, _)| q.system == SystemKind::SlimPipe && q.seq == 1024 * 1024)
        .expect("the query set includes SlimPipe at 1M");
    let SearchOutcome::Found(e) = out else {
        return 0.0;
    };
    let state = slimpipe_parallel::memory::device_state_bytes(&s.model, &e.cfg, true, e.peak_rank);
    e.peak_gib * GIB - state
}

/// The simulator input `parallel::estimate` builds for `cfg`, so the
/// traced run can time the simulation alone.
fn sim_env(s: &Setup, seq: u64, cfg: &ParallelConfig) -> PipelineEnv {
    let slim = cfg.scheme.is_slim();
    PipelineEnv {
        model: s.model.clone(),
        cluster: s.cluster,
        eff: Efficiency::hopper(),
        tp: cfg.tp,
        cp: cfg.cp,
        ep: cfg.ep,
        seq,
        mb_seqs: None,
        slicing: slimpipe_core::SlicePolicy::Uniform,
        ckpt: cfg.ckpt,
        exchange: slim,
        early_kv: true,
        vocab_parallel: slim,
        comm_overlap: 0.5,
        pipeline_overlap: 0.0,
    }
}

/// Median seconds to simulate one iteration of the 256K SlimPipe winner.
fn time_simulation(s: &Setup, outcomes: &[SearchOutcome], sp: &mut Spans) -> Result<f64, String> {
    let seq = 256 * 1024;
    let Some(SearchOutcome::Found(e)) = s
        .queries
        .iter()
        .zip(outcomes)
        .find(|(q, _)| q.system == SystemKind::SlimPipe && q.seq == seq)
        .map(|(_, o)| o)
    else {
        return Err("no SlimPipe winner at 256K to simulate".into());
    };
    let env = sim_env(s, seq, &e.cfg);
    let sched = e
        .cfg
        .scheme
        .build(e.cfg.pp, e.microbatches)
        .map_err(|err| err.to_string())?;
    let secs: Vec<f64> = (0..SIM_REPS)
        .map(|_| {
            sp.time("sim", "simulate", || {
                simulate(&CostModel::new(&sched, &env))
            })
            .1
        })
        .collect();
    Ok(median(&secs))
}

/// Price every candidate one `estimate` call at a time, each in its own
/// span: the traced twin of [`run_queries`]. Returns `(candidates,
/// out-of-memory candidates, seconds inside estimate)` and checks that the
/// best priced candidate is the winner `best_config` reported.
fn price_all(
    s: &Setup,
    outcomes: &[SearchOutcome],
    sp: &mut Spans,
) -> Result<(usize, usize, f64), String> {
    let (mut n, mut oom, mut secs) = (0, 0, 0.0);
    for (qi, q) in s.queries.iter().enumerate() {
        let mut best: Option<(f64, String)> = None;
        for cfg in &s.candidates[qi] {
            let (r, d) = sp.time("parallel", "estimate", || {
                estimate(&s.model, cfg, &s.cluster, q.seq, TOKENS_PER_ITER)
            });
            n += 1;
            secs += d;
            match r {
                Ok(e) if best.as_ref().is_none_or(|b| e.mfu > b.0) => {
                    best = Some((e.mfu, e.cfg.describe()))
                }
                Ok(_) => {}
                Err(EstimateError::Oom { .. }) => oom += 1,
                Err(_) => {}
            }
        }
        let want = match &outcomes[qi] {
            SearchOutcome::Found(e) => Some(e.cfg.describe()),
            _ => None,
        };
        if best.map(|b| b.1) != want {
            return Err(format!(
                "{:?} at {}: priced winner differs from best_config",
                q.system, q.seq
            ));
        }
    }
    Ok((n, oom, secs))
}

pub fn run(seconds: u64, trace: bool) -> Result<Outcome, String> {
    let mut sp = Spans::new(trace);
    // One set-up sample, a batch of passes lasting at least SETUP_BATCH_S,
    // recorded as the time per pass: one now, the rest between jobs.
    let mut setup_s = Vec::new();
    let mut sample = |sp: &mut Spans| -> Result<(), String> {
        let (secs, passes) = batch(SETUP_BATCH_S, || {
            Ok::<_, String>(sp.time("parallel", "candidate_configs", setup).1)
        })?;
        setup_s.push(secs / passes as f64);
        Ok(())
    };
    sample(&mut sp)?;
    let s = setup();

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<Vec<SearchOutcome>> = None;
    let mut walls = Vec::new();
    let mut priced: Vec<(usize, usize, f64)> = Vec::new();
    let c0 = slimpipe_obs::snapshot();
    let start = Instant::now();
    while attempted == 0 || start.elapsed() < Duration::from_secs(seconds) {
        let (outcomes, wall) = sp.time("parallel", "best_config", || run_queries(&s));
        attempted += 1;
        walls.push(wall);
        if let Err(e) = check(&s, &outcomes) {
            eprintln!("{e}");
            failed += 1;
        }
        if trace {
            let open = sp.enter("parallel", "price_all");
            let r = price_all(&s, &outcomes, &mut sp);
            sp.exit(open);
            attempted += 1;
            match r {
                Ok(p) => priced.push(p),
                Err(e) => {
                    eprintln!("{e}");
                    failed += 1;
                }
            }
        }
        first.get_or_insert(outcomes);
        for _ in 0..SETUP_SAMPLES_PER_JOB {
            sample(&mut sp)?;
        }
    }
    let rss = peak_rss_bytes()?;
    eprintln!("{}", describe("setup", "s", &setup_s));
    eprintln!("{}", describe("job", "s", &walls));
    let outcomes = first.expect("the loop runs at least once");

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    if !trace {
        m.insert(
            "tokens_per_s",
            (s.queries.len() as u64 * TOKENS_PER_ITER) as f64 / median(&walls),
        );
        m.insert("setup_s", median(&setup_s));
        m.insert("peak_act_mib", mib(winner_act_bytes(&s, &outcomes)));
        m.insert("peak_rss_mib", mib(rss));
        return Ok(Outcome {
            attempted,
            failed,
            metrics: m,
        });
    }
    let rates = kernels::probe(&mut sp);
    m.insert("tensor.gemm_gflops", rates.gemm_gflops);
    m.insert("tensor.gemm_peak_gflops", rates.gemm_peak_gflops);
    m.insert("tensor.attn_fwd_ms", rates.attn_fwd_ms);
    m.insert("tensor.attn_bwd_ms", rates.attn_bwd_ms);
    m.insert(
        "sim.simulate_ms",
        1e3 * time_simulation(&s, &outcomes, &mut sp)?,
    );
    let (n, oom, _) = *priced.last().ok_or("no traced pricing pass completed")?;
    m.insert("parallel.candidates", n as f64);
    m.insert("parallel.oom_share", oom as f64 / n as f64);
    m.insert(
        "parallel.estimate_us_per_candidate",
        1e6 * median(&priced.iter().map(|p| p.2 / p.0 as f64).collect::<Vec<_>>()),
    );
    m.insert(
        "obs.spans_dropped",
        slimpipe_obs::snapshot().delta(&c0).spans_dropped as f64,
    );
    eprint!("{}", sp.table());
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}
