//! The discrete-event engine: schedules every op at the earliest time its
//! device is free and its pipeline dependencies (plus transfer latency)
//! have arrived.
//!
//! Devices execute their op lists strictly in order (the static-schedule
//! contract); cross-device edges add a point-to-point transfer on the
//! pipeline link. The fixed point is computed by sweeping the devices and
//! running each one's ops until the next waits on a pass not yet
//! scheduled — the dependency graph is acyclic for any schedule accepted by
//! `slimpipe_sched::validate`, so the loop terminates in at most
//! `total_ops` sweeps.
//!
//! Dependency state is dense: a *unit* is one `(microbatch, slice)` pair,
//! numbered `offset[mb] + slice`, and each pass kind keeps one table
//! indexed by `stage · units + unit`. When a pass finishes it records both
//! its end time and the time its output reaches the device of the stage
//! that consumes it, priced from its own [`OpCost`], so every op is priced
//! exactly once and a dependency check is two array reads.

use crate::cost::{OpCost, UnitCostModel};
use crate::metrics;
use slimpipe_sched::{PassKind, Schedule, WorkItem};

/// Result of simulating one iteration's pipeline portion.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// End-to-end time of the pipeline portion of one iteration (seconds).
    pub makespan: f64,
    /// Busy seconds per device.
    pub busy: Vec<f64>,
    /// `1 − Σ busy / (p · makespan)` — the paper's bubble fraction.
    pub bubble_fraction: f64,
    /// Per-op start/finish times (device-major, schedule order).
    pub timeline: Vec<Vec<(f64, f64)>>,
    pub total_ops: usize,
}

impl SimReport {
    /// Per-device idle fraction.
    pub fn idle_fraction(&self, d: usize) -> f64 {
        1.0 - self.busy[d] / self.makespan
    }
}

/// A scheduled forward or backward pass of one unit at one stage: when it
/// ended on its own device, and when its output is available on the device
/// of the stage that consumes it (the next stage for a forward, the
/// previous for a backward).
#[derive(Clone, Copy)]
struct Done {
    end: f64,
    arrive: f64,
}

impl Done {
    /// Sentinel for a pass not yet scheduled (simulated times are never NaN).
    const PENDING: Done = Done { end: f64::NAN, arrive: f64::NAN };

    fn get(self) -> Option<Done> {
        (!self.end.is_nan()).then_some(self)
    }
}

/// First unit index of each microbatch: unit `(mb, slice)` is numbered
/// `offset[mb] + slice`, densely over `0..sched.units_per_chunk()`.
pub(crate) fn unit_offsets(sched: &Schedule) -> Vec<usize> {
    (0..sched.microbatches)
        .scan(0, |next, mb| {
            let first = *next;
            *next += sched.slices_of(mb);
            Some(first)
        })
        .collect()
}

/// Simulate a schedule under any [`UnitCostModel`] — the analytic cluster
/// model ([`crate::CostModel`]) or a calibrated profile of the real
/// executor kernels (the planner's).
pub fn simulate<C: UnitCostModel + ?Sized>(cm: &C) -> SimReport {
    let sched = cm.schedule();
    let p = sched.devices;
    let link = cm.pipeline_link();
    let stages = sched.num_stages();
    let last_stage = stages - 1;
    let offset = unit_offsets(sched);
    let units = sched.units_per_chunk();
    let mut device_of = vec![0usize; stages];
    for (d, row) in sched.stage_map.iter().enumerate() {
        for &stage in row {
            device_of[stage] = d;
        }
    }
    // Weight-gradient passes have no consumers, so they need no table.
    let mut fwd = vec![Done::PENDING; stages * units];
    let mut bwd = vec![Done::PENDING; stages * units];
    let mut pc = vec![0usize; p];
    let mut dev_time = vec![0.0f64; p];
    let mut busy = vec![0.0f64; p];
    let mut timeline: Vec<Vec<(f64, f64)>> = sched
        .ops
        .iter()
        .map(|ops| Vec::with_capacity(ops.len()))
        .collect();
    let total: usize = sched.ops.iter().map(|o| o.len()).sum();
    let mut done = 0usize;

    // Earliest time every dependency of `op` (table index `at`) is
    // available on its device, or None while one is still pending.
    let ready = |op: &WorkItem, stage: usize, at: usize, fwd: &[Done], bwd: &[Done]| {
        match op.kind {
            PassKind::Forward => {
                let mut t = 0.0f64;
                if stage > 0 {
                    t = t.max(fwd[at - units].get()?.arrive);
                }
                if op.slice > 0 {
                    t = t.max(fwd[at - 1].get()?.end);
                }
                Some(t)
            }
            PassKind::Backward => {
                let mut t = fwd[at].get()?.end;
                if stage < last_stage {
                    t = t.max(bwd[at + units].get()?.arrive);
                }
                if op.slice + 1 < sched.slices_of(op.mb as usize) as u32 {
                    t = t.max(bwd[at + 1].get()?.end);
                }
                Some(t)
            }
            PassKind::BackwardWeight => Some(bwd[at].get()?.end),
        }
    };
    // When the output of a pass ending at `end` on device `d` reaches its
    // consumer. Overlapped edges hide part of the transfer behind the
    // sender's next compute; only the exposed share blocks.
    let arrival = |kind: PassKind, stage: usize, d: usize, end: f64, cost: &OpCost| {
        let consumer = match kind {
            PassKind::Forward if stage < last_stage => stage + 1,
            PassKind::Backward if stage > 0 => stage - 1,
            _ => return end,
        };
        let dst = device_of[consumer];
        if dst == d {
            return end;
        }
        let exposed = (1.0 - cm.edge_overlap(d, dst)).clamp(0.0, 1.0);
        end + exposed * link.transfer(cost.send_bytes)
    };

    while done < total {
        let mut progress = false;
        for d in 0..p {
            while pc[d] < sched.ops[d].len() {
                let op = sched.ops[d][pc[d]];
                debug_assert!((op.slice as usize) < sched.slices_of(op.mb as usize));
                let stage = sched.stage_of(d, op.chunk as usize);
                let at = stage * units + offset[op.mb as usize] + op.slice as usize;
                let Some(ready) = ready(&op, stage, at, &fwd, &bwd) else { break };
                let start = dev_time[d].max(ready);
                let cost = cm.op_cost(d, &op);
                let end = start + cost.duration;
                dev_time[d] = end;
                busy[d] += cost.duration;
                timeline[d].push((start, end));
                let finished = Done { end, arrive: arrival(op.kind, stage, d, end, &cost) };
                match op.kind {
                    PassKind::Forward => fwd[at] = finished,
                    PassKind::Backward => bwd[at] = finished,
                    PassKind::BackwardWeight => {}
                }
                pc[d] += 1;
                done += 1;
                progress = true;
            }
        }
        assert!(
            progress,
            "simulation deadlock in '{}' — schedule not validated?",
            sched.name
        );
    }

    let makespan = dev_time.iter().copied().fold(0.0, f64::max);
    let bubble_fraction = metrics::bubble_fraction(&busy, makespan);
    SimReport { makespan, busy, bubble_fraction, timeline, total_ops: total }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, PipelineEnv};
    use slimpipe_model::ModelConfig;

    fn env(seq: u64) -> PipelineEnv {
        PipelineEnv::test_default(ModelConfig::llama_13b(), seq)
    }

    #[test]
    fn single_device_has_no_bubble() {
        let e = env(65_536);
        let sched = slimpipe_sched::onefoneb::generate(1, 4).unwrap();
        let r = simulate(&CostModel::new(&sched, &e));
        assert!(r.bubble_fraction.abs() < 1e-9);
    }

    #[test]
    fn gpipe_bubble_shrinks_with_more_microbatches() {
        let e = env(65_536);
        let few = simulate(&CostModel::new(
            &slimpipe_sched::gpipe::generate(4, 4).unwrap(),
            &e,
        ));
        let many = simulate(&CostModel::new(
            &slimpipe_sched::gpipe::generate(4, 16).unwrap(),
            &e,
        ));
        assert!(many.bubble_fraction < few.bubble_fraction);
        // Roughly (p-1)/(m+p-1): 3/7 ≈ 0.43 and 3/19 ≈ 0.16.
        assert!((few.bubble_fraction - 0.43).abs() < 0.12, "{}", few.bubble_fraction);
    }

    #[test]
    fn slimpipe_bubble_is_far_below_1f1b() {
        let e = env(262_144);
        let m = 4;
        let p = 4;
        let ofob = simulate(&CostModel::new(
            &slimpipe_sched::onefoneb::generate(p, m).unwrap(),
            &e,
        ));
        let slim = simulate(&CostModel::new(
            &slimpipe_core::schedule::generate(p, m, 4 * p).unwrap(),
            &e,
        ));
        assert!(
            slim.bubble_fraction < 0.4 * ofob.bubble_fraction,
            "slim={} 1f1b={}",
            slim.bubble_fraction,
            ofob.bubble_fraction
        );
    }

    #[test]
    fn disabling_exchange_creates_imbalance_bubbles() {
        let mut e = env(262_144);
        let sched = slimpipe_core::schedule::generate(4, 4, 16).unwrap();
        e.exchange = true;
        let balanced = simulate(&CostModel::new(&sched, &e));
        e.exchange = false;
        let imbalanced = simulate(&CostModel::new(&sched, &e));
        assert!(
            imbalanced.bubble_fraction > balanced.bubble_fraction + 0.02,
            "balanced={} imbalanced={}",
            balanced.bubble_fraction,
            imbalanced.bubble_fraction
        );
    }

    #[test]
    fn makespan_dominates_critical_path() {
        let e = env(131_072);
        let sched = slimpipe_sched::onefoneb::generate(4, 8).unwrap();
        let r = simulate(&CostModel::new(&sched, &e));
        for d in 0..4 {
            assert!(r.busy[d] <= r.makespan + 1e-9);
        }
        assert_eq!(r.total_ops, 4 * 16);
        // Timelines are monotone per device.
        for tl in &r.timeline {
            for w in tl.windows(2) {
                assert!(w[1].0 >= w[0].1 - 1e-9);
            }
        }
    }

    #[test]
    fn overlapped_edges_never_lengthen_the_makespan() {
        let mut e = env(131_072);
        let sched = slimpipe_sched::onefoneb::generate(4, 8).unwrap();
        e.pipeline_overlap = 0.0;
        let serial = simulate(&CostModel::new(&sched, &e));
        e.pipeline_overlap = 1.0;
        let overlapped = simulate(&CostModel::new(&sched, &e));
        assert!(
            overlapped.makespan <= serial.makespan + 1e-9,
            "overlap must never cost time: overlapped={} serialized={}",
            overlapped.makespan,
            serial.makespan
        );
        // Edge transfers sit on 1F1B's warmup critical path, so full
        // overlap must actually buy something.
        assert!(
            overlapped.makespan < serial.makespan,
            "fully hidden edges should shorten the 1F1B critical path"
        );
    }

    #[test]
    fn zbv_suffers_at_long_context() {
        // Figure 3's story: ZB-V's W-filling cannot absorb attention-heavy
        // backwards; SlimPipe stays near zero.
        let e = env(262_144);
        let zbv = simulate(&CostModel::new(
            &slimpipe_sched::zbv::generate_zbv(4, 4, slimpipe_sched::zbv::ZbCosts::default())
                .unwrap(),
            &e,
        ));
        let slim = simulate(&CostModel::new(
            &slimpipe_core::schedule::generate(4, 4, 16).unwrap(),
            &e,
        ));
        assert!(
            slim.bubble_fraction < zbv.bubble_fraction,
            "slim={} zbv={}",
            slim.bubble_fraction,
            zbv.bubble_fraction
        );
    }
}
