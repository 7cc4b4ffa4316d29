//! The slicing search: pick per-microbatch slice counts and explicit token
//! bounds that minimise the profiled simulated makespan, under the byte
//! model's peak-memory cap.
//!
//! Three stages, cheap to expensive:
//!
//! 1. **Count candidates** — per-microbatch slice counts are multiples of
//!    the pipeline size (the SlimPipe staircase invariant). For ragged
//!    workloads a *proportional* family assigns shorter microbatches fewer
//!    slices (fewer per-slice constants, same pipelining depth where it
//!    matters); the flat family keeps one global count.
//! 2. **Bounds per candidate** — a min-max DP over a token-boundary grid
//!    balances the *calibrated* per-slice cost `w(t, pairs)` (GEMM-linear
//!    plus attention-pair terms — what `PairBalanced` approximates with
//!    pairs alone), with the `even` and `pair_balanced` partitions also
//!    evaluated so the planner never loses to either baseline at its own
//!    slice counts.
//! 3. **Refinement** — hill-climb individual bounds of the winner against
//!    the discrete-event simulated makespan.
//!
//! Every candidate is rejected outright if any device's predicted peak
//! activation bytes exceed the cap — memory is a constraint, not a term in
//! the objective (§4.1.1: bounded accumulation is what makes slicing
//! usable at all).

use crate::calibrate::shape_of;
use crate::cost::{ByteModel, ProfiledCostModel};
use crate::plan::Plan;
use crate::profile::CostProfile;
use slimpipe_cluster::Link;
use slimpipe_core::schedule::generate_var;
use slimpipe_core::Slicing;
use slimpipe_exec::ExecConfig;
use slimpipe_model::causal_pairs;
use slimpipe_sched::{PassKind, Schedule};
use slimpipe_sim::{simulate, UnitCostModel};
use std::collections::BTreeSet;

/// Boundary-link pricing for candidate evaluation: when present, every
/// candidate's simulated makespan includes per-boundary activation
/// transfers over this link, with the profile's calibrated overlap
/// fraction (`ov`) hiding part of each edge behind compute.
#[derive(Clone, Copy, Debug)]
pub struct CommOpts {
    /// Link between adjacent pipeline stages.
    pub link: Link,
    /// Boundary activation bytes per token of the crossing unit.
    pub bytes_per_token: f64,
}

/// Search knobs.
#[derive(Clone, Debug)]
pub struct PlanOpts {
    /// Hard per-device peak activation byte cap (predicted by the byte
    /// model). `None` = unconstrained.
    pub mem_cap_bytes: Option<u64>,
    /// Largest slice count considered for any microbatch.
    pub max_slices_per_mb: usize,
    /// Boundary-grid resolution for the DP (token positions per
    /// microbatch; small sequences use every position).
    pub boundary_grid: usize,
    /// Hill-climbing rounds over the winning plan's bounds.
    pub refine_rounds: usize,
    /// Optional stage-boundary link pricing. `None` (the default) keeps
    /// sends free — in-process stages pass pointers.
    pub comm: Option<CommOpts>,
}

impl Default for PlanOpts {
    fn default() -> Self {
        Self {
            mem_cap_bytes: None,
            max_slices_per_mb: 16,
            boundary_grid: 128,
            refine_rounds: 2,
            comm: None,
        }
    }
}

/// Why the planner could not produce a plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The profile was calibrated for a different model shape.
    ShapeMismatch(String),
    /// No candidate satisfies the workload geometry / memory cap.
    Infeasible(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::ShapeMismatch(s) => write!(f, "profile shape mismatch: {s}"),
            PlanError::Infeasible(s) => write!(f, "no feasible plan: {s}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Largest multiple of `p` that is ≤ `x` (0 when `x < p`).
fn floor_mult(x: usize, p: usize) -> usize {
    x / p * p
}

/// Combined forward+backward cost of one slice on one interior stage —
/// the balance target (head/embedding token-linear edges included: they
/// skew the bottleneck stages exactly like layer GEMMs do).
fn unit_weight(profile: &CostProfile, layers_per_stage: usize, t: f64, pairs: f64) -> f64 {
    let p = profile;
    let l = layers_per_stage as f64;
    l * ((p.f0 + p.b0) + (p.ft + p.bt) * t + (p.fp + p.bp) * pairs)
        + (p.hft + p.hbt + p.ef + p.eb) * t
}

/// Token-boundary candidates for one microbatch: every position for short
/// sequences, an evenly spaced grid (always containing 0 and `seq`) for
/// long ones.
fn grid_positions(seq: u64, n: usize, max_grid: usize) -> Vec<u64> {
    let want = max_grid.max(n + 1);
    if seq as usize <= want {
        return (0..=seq).collect();
    }
    let mut g: Vec<u64> = (0..=want)
        .map(|i| (i as u128 * seq as u128 / want as u128) as u64)
        .collect();
    g.dedup();
    g
}

/// Min-max DP: bounds of `n` slices over `seq` tokens minimising the
/// maximum per-slice `w(start, end)` weight.
fn dp_balanced_bounds(
    seq: u64,
    n: usize,
    grid: usize,
    w: &dyn Fn(u64, u64) -> f64,
) -> Vec<u64> {
    if n == 1 {
        return vec![0, seq];
    }
    let g = grid_positions(seq, n, grid);
    let m = g.len();
    let mut dp = vec![vec![f64::INFINITY; m]; n + 1];
    let mut par = vec![vec![0usize; m]; n + 1];
    dp[0][0] = 0.0;
    for j in 1..=n {
        for i in j..m {
            for k in (j - 1)..i {
                if dp[j - 1][k].is_finite() {
                    let v = dp[j - 1][k].max(w(g[k], g[i]));
                    if v < dp[j][i] {
                        dp[j][i] = v;
                        par[j][i] = k;
                    }
                }
            }
        }
    }
    let mut bounds = vec![0u64; n + 1];
    bounds[n] = seq;
    let mut i = m - 1;
    for j in (1..=n).rev() {
        i = par[j][i];
        bounds[j - 1] = g[i];
    }
    bounds
}

/// One fully specified candidate under evaluation.
struct Candidate {
    counts: Vec<usize>,
    slicings: Vec<Slicing>,
    sched: Schedule,
    makespan: f64,
    bubble: f64,
}

/// Evaluate a (counts, slicings) pair; `None` if it violates the cap.
fn evaluate(
    cfg: &ExecConfig,
    profile: &CostProfile,
    bm: &ByteModel,
    counts: &[usize],
    slicings: Vec<Slicing>,
    opts: &PlanOpts,
) -> Option<Candidate> {
    let sched = generate_var(cfg.stages, counts).ok()?;
    if let Some(cap) = opts.mem_cap_bytes {
        if bm.worst_predicted_peak(&sched, &slicings) > cap as f64 {
            return None;
        }
    }
    let lps = cfg.layers_per_stage();
    let report = {
        let mut cm = ProfiledCostModel::new(&sched, profile, lps, slicings.clone());
        if let Some(comm) = opts.comm {
            cm = cm.with_comm(comm.link, comm.bytes_per_token, profile.ov);
        }
        simulate(&cm)
    };
    Some(Candidate {
        counts: counts.to_vec(),
        slicings,
        sched,
        makespan: report.makespan,
        bubble: report.bubble_fraction,
    })
}

/// Search for an executable slice plan for `cfg`'s workload (its model
/// shape, pipeline geometry, and — possibly ragged — microbatch lengths;
/// the config's own slicing policy fields are the *output* axis and are
/// ignored on input).
pub fn plan(cfg: &ExecConfig, profile: &CostProfile, opts: &PlanOpts) -> Result<Plan, PlanError> {
    if profile.shape != shape_of(cfg) {
        return Err(PlanError::ShapeMismatch(format!(
            "profile {:?} vs workload {:?}",
            profile.shape,
            shape_of(cfg)
        )));
    }
    profile.validate().map_err(PlanError::Infeasible)?;
    let p = cfg.stages;
    let m = cfg.microbatches;
    if m == 0 || p == 0 {
        return Err(PlanError::Infeasible("empty workload".into()));
    }
    let seqs: Vec<u64> = (0..m).map(|mb| cfg.mb_seq(mb) as u64).collect();
    let seq_max = *seqs.iter().max().unwrap();
    for (mb, &s) in seqs.iter().enumerate() {
        if floor_mult(s as usize, p) == 0 {
            return Err(PlanError::Infeasible(format!(
                "microbatch {mb}: {s} tokens cannot fill {p} pipeline-sized slices"
            )));
        }
    }
    let bm = ByteModel::from_config(cfg);
    let lps = cfg.layers_per_stage();
    let weight = |a: u64, b: u64| -> f64 {
        let t = b - a;
        unit_weight(profile, lps, t as f64, causal_pairs(a, t) as f64)
    };

    // --- candidate slice-count vectors ---
    let kmax = (opts.max_slices_per_mb / p).max(1);
    let mut count_vecs: BTreeSet<Vec<usize>> = BTreeSet::new();
    for k in 1..=kmax {
        let cap_of = |seq: u64| floor_mult(seq as usize, p).max(p).min(seq as usize);
        // Proportional: shorter microbatches get proportionally fewer
        // slices (min one pipeline's worth).
        let prop: Vec<usize> = seqs
            .iter()
            .map(|&s| {
                let ideal = (k * p) as f64 * s as f64 / seq_max as f64;
                let rounded = ((ideal / p as f64).round() as usize).max(1) * p;
                rounded.clamp(p, cap_of(s).min(k * p))
            })
            .collect();
        count_vecs.insert(prop);
        // Flat: one global count (clamped where a short microbatch cannot
        // fill it).
        let flat: Vec<usize> = seqs.iter().map(|&s| (k * p).min(cap_of(s))).collect();
        count_vecs.insert(flat);
    }

    // --- evaluate candidates: DP-balanced, even, and pair-balanced
    //     bounds at each count vector ---
    let mut best: Option<Candidate> = None;
    let mut consider = |cand: Option<Candidate>| {
        if let Some(c) = cand {
            if best.as_ref().is_none_or(|b| c.makespan < b.makespan) {
                best = Some(c);
            }
        }
    };
    for counts in &count_vecs {
        let dp_slicings: Vec<Slicing> = counts
            .iter()
            .zip(&seqs)
            .map(|(&n, &s)| Slicing::explicit(s, dp_balanced_bounds(s, n, opts.boundary_grid, &weight)))
            .collect();
        consider(evaluate(cfg, profile, &bm, counts, dp_slicings, opts));
        let even: Vec<Slicing> = counts
            .iter()
            .zip(&seqs)
            .map(|(&n, &s)| Slicing::even(s, n))
            .collect();
        consider(evaluate(cfg, profile, &bm, counts, even, opts));
        let pb: Vec<Slicing> = counts
            .iter()
            .zip(&seqs)
            .map(|(&n, &s)| Slicing::pair_balanced(s, n))
            .collect();
        consider(evaluate(cfg, profile, &bm, counts, pb, opts));
    }
    let mut best = best.ok_or_else(|| {
        PlanError::Infeasible(format!(
            "no slice-count candidate fits the {:?}-byte cap",
            opts.mem_cap_bytes
        ))
    })?;

    // --- local refinement: move individual bounds while the simulated
    //     makespan improves ---
    for _ in 0..opts.refine_rounds {
        let mut improved = false;
        for mb in 0..m {
            let n = best.counts[mb];
            for i in 1..n {
                let cur = best.slicings[mb].bounds.clone();
                let step = ((cur[i + 1] - cur[i - 1]) / 8).max(1);
                for delta in [-(step as i64), -1, 1, step as i64] {
                    let moved = cur[i] as i64 + delta;
                    if moved <= cur[i - 1] as i64 || moved >= cur[i + 1] as i64 {
                        continue;
                    }
                    let mut bounds = cur.clone();
                    bounds[i] = moved as u64;
                    let mut slicings = best.slicings.clone();
                    slicings[mb] = Slicing::explicit(seqs[mb], bounds);
                    if let Some(c) = evaluate(
                        cfg,
                        profile,
                        &bm,
                        &best.counts.clone(),
                        slicings,
                        opts,
                    ) {
                        if c.makespan < best.makespan {
                            best = c;
                            improved = true;
                            break;
                        }
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }

    // --- report ---
    let cm = ProfiledCostModel::new(&best.sched, profile, lps, best.slicings.clone());
    let mut busy = vec![0.0f64; p];
    let mut mean_f = (0.0, 0usize);
    let mut mean_b = (0.0, 0usize);
    for (d, ops) in best.sched.ops.iter().enumerate() {
        for op in ops {
            let c = cm.op_cost(d, op).duration;
            busy[d] += c;
            match op.kind {
                PassKind::Forward => {
                    mean_f.0 += c;
                    mean_f.1 += 1;
                }
                _ => {
                    mean_b.0 += c;
                    mean_b.1 += 1;
                }
            }
        }
    }
    let busy_max = busy.iter().copied().fold(0.0, f64::max);
    let total_busy: f64 = busy.iter().sum();
    let fill = (p as f64 - 1.0)
        * (mean_f.0 / mean_f.1.max(1) as f64 + mean_b.0 / mean_b.1.max(1) as f64);
    let predicted_makespan = busy_max + fill;
    let predicted_bubble = (1.0 - total_busy / (p as f64 * predicted_makespan)).max(0.0);
    let unit_costs: Vec<Vec<f64>> = best
        .slicings
        .iter()
        .map(|s| {
            (0..s.n())
                .map(|i| {
                    let (start, len) = s.slice(i);
                    weight(start, start + len) * 1e-9
                })
                .collect()
        })
        .collect();
    let predicted_peak_bytes: Vec<f64> = (0..p)
        .map(|d| bm.predicted_peak(&best.sched, &best.slicings, d))
        .collect();
    Ok(Plan {
        mb_slices: best.counts.clone(),
        mb_bounds: best.slicings.iter().map(|s| s.bounds.clone()).collect(),
        predicted_makespan,
        predicted_bubble,
        simulated_makespan: best.makespan,
        simulated_bubble: best.bubble,
        predicted_peak_bytes,
        unit_costs,
    })
}

/// Boundary link priced during degraded re-planning. Recovery re-plans
/// because devices were *lost*: the surviving geometry may route stage
/// boundaries over slower inter-node paths, so price them conservatively
/// (~12.5 GB/s, 2 µs — a 100 Gb Ethernet class hop) rather than free.
pub const DEGRADED_LINK: Link = Link { bandwidth: 12.5e9, latency: 2e-6 };

/// Re-plan an existing job onto `survivors` pipeline stages after device
/// loss: same model, same workload, same seed — only the pipeline geometry
/// shrinks. The search runs with [`DEGRADED_LINK`] pricing stage-boundary
/// activation traffic (one hidden-vector row per token, f32) so the
/// emitted bounds account for the degraded interconnect, and with
/// `mem_cap_bytes` re-enforced: the survivors each hold *more* layers, so
/// a plan that fit before may not fit now.
///
/// The returned config is the lowered plan over `base` with
/// `stages = survivors`; callers (the elastic driver) restore from the
/// latest checkpoint and continue. Infeasible geometry (layers or vocab
/// shards not divisible by `survivors`) is a [`PlanError::Infeasible`],
/// not a panic — the driver treats it as "shrink further or give up".
pub fn replan_for_stages(
    base: &ExecConfig,
    profile: &CostProfile,
    survivors: usize,
    mem_cap_bytes: Option<u64>,
) -> Result<ExecConfig, PlanError> {
    if survivors == 0 {
        return Err(PlanError::Infeasible("zero surviving stages".into()));
    }
    if !base.layers.is_multiple_of(survivors) {
        return Err(PlanError::Infeasible(format!(
            "{} layers cannot spread over {survivors} surviving stages",
            base.layers
        )));
    }
    if base.vocab_parallel && !base.vocab.is_multiple_of(survivors) {
        return Err(PlanError::Infeasible(format!(
            "vocab {} cannot re-shard over {survivors} surviving stages",
            base.vocab
        )));
    }
    let degraded = ExecConfig { stages: survivors, ..base.clone() };
    let opts = PlanOpts {
        mem_cap_bytes,
        comm: Some(CommOpts {
            link: DEGRADED_LINK,
            bytes_per_token: (degraded.hidden() * 4) as f64,
        }),
        ..PlanOpts::default()
    };
    let plan = plan(&degraded, profile, &opts)?;
    Ok(plan.to_exec_config(&degraded))
}

/// Simulated report for `cfg` exactly as configured (its own policy and
/// slice counts) under the profiled cost model — the baseline the planner
/// is compared against.
pub fn simulate_config(cfg: &ExecConfig, profile: &CostProfile) -> slimpipe_sim::SimReport {
    assert_eq!(profile.shape, shape_of(cfg), "profile shape mismatch");
    let counts: Vec<usize> = (0..cfg.microbatches).map(|mb| cfg.slices_of(mb)).collect();
    let sched = generate_var(cfg.stages, &counts).expect("workload geometry rejected");
    let cm = ProfiledCostModel::new(&sched, profile, cfg.layers_per_stage(), cfg.slicings());
    simulate(&cm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileShape;

    fn toy_profile() -> CostProfile {
        CostProfile {
            shape: ProfileShape { heads: 4, kv_heads: 2, head_dim: 8, ffn: 64, vocab: 96 },
            f0: 1000.0,
            ft: 50.0,
            fp: 2.0,
            b0: 2000.0,
            bt: 110.0,
            bp: 4.5,
            hf0: 500.0,
            hft: 80.0,
            hb0: 600.0,
            hbt: 95.0,
            ef: 3.0,
            eb: 5.0,
            ov: 0.0,
        }
    }

    fn workload() -> ExecConfig {
        ExecConfig {
            stages: 2,
            microbatches: 2,
            ..ExecConfig::small()
        }
    }

    #[test]
    fn dp_bounds_are_a_valid_partition() {
        let w = |a: u64, b: u64| (b - a) as f64 + causal_pairs(a, b - a) as f64 * 0.1;
        for (seq, n) in [(64u64, 4usize), (100, 3), (1000, 8), (64, 1)] {
            let b = dp_balanced_bounds(seq, n, 128, &w);
            Slicing::try_explicit(seq, b.clone()).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(b.len(), n + 1);
        }
    }

    #[test]
    fn dp_beats_even_on_the_minmax_weight() {
        // Pair-heavy weight: even slicing leaves the last slice far
        // heavier; the DP must do strictly better on the max.
        let w = |a: u64, b: u64| causal_pairs(a, b - a) as f64;
        let seq = 1024u64;
        let n = 8;
        let b = dp_balanced_bounds(seq, n, 256, &w);
        let s = Slicing::explicit(seq, b);
        let even = Slicing::even(seq, n);
        let max_of = |s: &Slicing| (0..s.n()).map(|i| s.pairs(i)).max().unwrap();
        assert!(max_of(&s) < max_of(&even));
    }

    #[test]
    fn plan_rejects_shape_mismatch() {
        let mut prof = toy_profile();
        prof.shape.ffn = 1;
        assert!(matches!(
            plan(&workload(), &prof, &PlanOpts::default()),
            Err(PlanError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn plan_emits_valid_partitions() {
        let p = plan(&workload(), &toy_profile(), &PlanOpts::default()).unwrap();
        assert_eq!(p.mb_bounds.len(), 2);
        for (mb, b) in p.mb_bounds.iter().enumerate() {
            Slicing::try_explicit(64, b.clone()).unwrap();
            assert_eq!(b.len(), p.mb_slices[mb] + 1);
            assert!(p.mb_slices[mb].is_multiple_of(2), "counts stay multiples of p");
        }
        assert!(p.simulated_makespan > 0.0);
        assert!(p.predicted_makespan > 0.0);
    }

    #[test]
    fn tight_memory_cap_is_respected_or_infeasible() {
        let cfg = workload();
        let prof = toy_profile();
        // Unconstrained peak.
        let free = plan(&cfg, &prof, &PlanOpts::default()).unwrap();
        let peak = free.predicted_peak_bytes.iter().copied().fold(0.0, f64::max);
        // A cap at 80% of the unconstrained peak forces a different plan
        // (or a proof of infeasibility) — and any emitted plan must fit.
        let opts = PlanOpts { mem_cap_bytes: Some((peak * 0.8) as u64), ..PlanOpts::default() };
        match plan(&cfg, &prof, &opts) {
            Ok(p) => {
                let worst = p.predicted_peak_bytes.iter().copied().fold(0.0, f64::max);
                assert!(worst <= peak * 0.8 + 1.0, "cap violated: {worst} > {}", peak * 0.8);
            }
            Err(PlanError::Infeasible(_)) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
        // An absurdly small cap must be infeasible, not silently violated.
        let opts = PlanOpts { mem_cap_bytes: Some(16), ..PlanOpts::default() };
        assert!(matches!(plan(&cfg, &prof, &opts), Err(PlanError::Infeasible(_))));
    }

    #[test]
    fn ragged_workload_gets_per_mb_counts() {
        let cfg = ExecConfig {
            stages: 2,
            microbatches: 2,
            mb_seqs: Some(vec![32, 128]),
            seq: 128,
            ..ExecConfig::small()
        };
        let p = plan(&cfg, &toy_profile(), &PlanOpts::default()).unwrap();
        assert!(
            p.has_per_mb_counts(),
            "a 4x length spread should earn different slice counts: {:?}",
            p.mb_slices
        );
        // Token totals conserved per microbatch.
        assert_eq!(*p.mb_bounds[0].last().unwrap(), 32);
        assert_eq!(*p.mb_bounds[1].last().unwrap(), 128);
    }
}
