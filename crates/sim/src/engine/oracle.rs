//! The engine as it was first written: finish times in a hashed map,
//! dependencies relaxed by lookup, and the full `op_cost` re-evaluated on
//! every cross-device edge. Kept only as the bit-identity oracle the dense
//! engine is tested against — it is not a runtime path.

use super::SimReport;
use crate::cost::UnitCostModel;
use crate::metrics;
use slimpipe_sched::PassKind;
use std::collections::HashMap;

pub(super) fn simulate<C: UnitCostModel + ?Sized>(cm: &C) -> SimReport {
    let sched = cm.schedule();
    let p = sched.devices;
    let link = cm.pipeline_link();
    // finish[(kind, stage, mb, slice)] = (finish_time, device)
    let mut finish: HashMap<(PassKind, usize, u32, u32), (f64, usize)> = HashMap::new();
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
    let last_stage = sched.num_stages() - 1;

    // Earliest time all dependencies of op (on device d) are available,
    // or None if some dependency has not been scheduled yet.
    let dep_time = |d: usize,
                    op: &slimpipe_sched::WorkItem,
                    finish: &HashMap<(PassKind, usize, u32, u32), (f64, usize)>|
     -> Option<f64> {
        let stage = sched.stage_of(d, op.chunk as usize);
        let arrival = |key: (PassKind, usize, u32, u32), cross_comm: bool| -> Option<f64> {
            let &(t, src) = finish.get(&key)?;
            Some(if cross_comm && src != d {
                // Overlapped edges hide part of the transfer behind the
                // sender's next compute; only the exposed share blocks.
                let exposed = (1.0 - cm.edge_overlap(src, d)).clamp(0.0, 1.0);
                t + exposed * link.transfer(cm.op_cost(src, op).send_bytes)
            } else {
                t
            })
        };
        match op.kind {
            PassKind::Forward => {
                let mut t = 0.0f64;
                if stage > 0 {
                    t = t.max(arrival((PassKind::Forward, stage - 1, op.mb, op.slice), true)?);
                }
                if op.slice > 0 {
                    t = t.max(arrival(
                        (PassKind::Forward, stage, op.mb, op.slice - 1),
                        false,
                    )?);
                }
                Some(t)
            }
            PassKind::Backward => {
                let mut t =
                    arrival((PassKind::Forward, stage, op.mb, op.slice), false)?;
                if stage < last_stage {
                    t = t.max(arrival((PassKind::Backward, stage + 1, op.mb, op.slice), true)?);
                }
                if op.slice + 1 < sched.slices_of(op.mb as usize) as u32 {
                    t = t.max(arrival(
                        (PassKind::Backward, stage, op.mb, op.slice + 1),
                        false,
                    )?);
                }
                Some(t)
            }
            PassKind::BackwardWeight => {
                arrival((PassKind::Backward, stage, op.mb, op.slice), false)
            }
        }
    };

    while done < total {
        let mut progress = false;
        for d in 0..p {
            while pc[d] < sched.ops[d].len() {
                let op = sched.ops[d][pc[d]];
                let Some(ready) = dep_time(d, &op, &finish) else { break };
                let start = dev_time[d].max(ready);
                let cost = cm.op_cost(d, &op);
                let end = start + cost.duration;
                dev_time[d] = end;
                busy[d] += cost.duration;
                timeline[d].push((start, end));
                let stage = sched.stage_of(d, op.chunk as usize);
                finish.insert((op.kind, stage, op.mb, op.slice), (end, d));
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

mod tests {
    use crate::cost::{CostModel, OpCost, PipelineEnv, UnitCostModel};
    use slimpipe::planner::{CostProfile, ProfiledCostModel};
    use slimpipe_cluster::Link;
    use slimpipe_core::{SlicePolicy, Slicing};
    use slimpipe_model::ModelConfig;
    use slimpipe_sched::zbv::ZbCosts;
    use slimpipe_sched::{PassKind, Schedule, WorkItem};

    /// The dense engine must reproduce the oracle bit for bit: makespan,
    /// busy time, bubble fraction, and every timeline entry.
    fn assert_bit_identical<C: UnitCostModel + ?Sized>(cm: &C, what: &str) {
        let want = super::simulate(cm);
        let got = crate::simulate(cm);
        assert_eq!(got.makespan.to_bits(), want.makespan.to_bits(), "{what}: makespan");
        assert_eq!(
            got.bubble_fraction.to_bits(),
            want.bubble_fraction.to_bits(),
            "{what}: bubble"
        );
        assert_eq!(got.total_ops, want.total_ops, "{what}: ops");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.busy), bits(&want.busy), "{what}: busy");
        for (d, (g, w)) in got.timeline.iter().zip(&want.timeline).enumerate() {
            let flat = |tl: &[(f64, f64)]| {
                tl.iter().flat_map(|&(s, e)| [s.to_bits(), e.to_bits()]).collect::<Vec<_>>()
            };
            assert_eq!(flat(g), flat(w), "{what}: device {d} timeline");
        }
    }

    /// The engine prices an edge from the producer's `send_bytes`; the
    /// oracle priced the consumer op on the producer's device. Both
    /// in-tree models derive the bytes from the unit's tokens, so the two
    /// agree on every edge.
    fn assert_edges_priced_alike<C: UnitCostModel + ?Sized>(cm: &C, what: &str) {
        let sched = cm.schedule();
        for (d, ops) in sched.ops.iter().enumerate() {
            for op in ops {
                let stage = sched.stage_of(d, op.chunk as usize);
                let consumer = match op.kind {
                    PassKind::Forward if stage + 1 < sched.num_stages() => stage + 1,
                    PassKind::Backward if stage > 0 => stage - 1,
                    _ => continue,
                };
                let (_, chunk) = sched.locate_stage(consumer);
                let consumer_op = WorkItem { chunk: chunk as u32, ..*op };
                assert_eq!(
                    cm.op_cost(d, op).send_bytes.to_bits(),
                    cm.op_cost(d, &consumer_op).send_bytes.to_bits(),
                    "{what}: {op:?} on device {d}"
                );
            }
        }
    }

    fn schedules() -> Vec<Schedule> {
        vec![
            slimpipe_sched::onefoneb::generate(4, 8).unwrap(),
            slimpipe_sched::gpipe::generate(4, 4).unwrap(),
            slimpipe_sched::interleaved::generate(4, 2, 8).unwrap(),
            slimpipe_sched::zbv::generate_zbv(4, 8, ZbCosts::default()).unwrap(),
            slimpipe_sched::zbv::generate_vhalf(4, 8, ZbCosts::default()).unwrap(),
            slimpipe_core::schedule::generate(4, 4, 8).unwrap(),
            slimpipe_core::interleaved::generate(4, 2, 4, 8).unwrap(),
            slimpipe_core::schedule::generate_var(4, &[12, 4, 8, 4]).unwrap(),
        ]
    }

    #[test]
    fn dense_engine_matches_the_oracle_on_the_analytic_model() {
        for sched in schedules() {
            let m = sched.microbatches;
            let ragged: Vec<u64> = (0..m as u64).map(|mb| 65_536 - 4_096 * (mb % 5)).collect();
            for (mb_seqs, slicing) in
                [(None, SlicePolicy::Uniform), (Some(ragged), SlicePolicy::PairBalanced)]
            {
                for vocab_parallel in [false, true] {
                    for pipeline_overlap in [0.0, 0.5, 1.0] {
                        let env = PipelineEnv {
                            mb_seqs: mb_seqs.clone(),
                            slicing: slicing.clone(),
                            vocab_parallel,
                            pipeline_overlap,
                            ..PipelineEnv::test_default(ModelConfig::llama_13b(), 65_536)
                        };
                        let what = format!(
                            "{} {} vocab_parallel={vocab_parallel} overlap={pipeline_overlap}",
                            sched.name,
                            slicing.tag()
                        );
                        let cm = CostModel::new(&sched, &env);
                        assert_bit_identical(&cm, &what);
                        assert_edges_priced_alike(&cm, &what);
                    }
                }
            }
        }
    }

    /// The planner's model seen through this crate's trait (it implements
    /// the trait of the non-test build).
    struct Profiled<'a>(ProfiledCostModel<'a>);

    impl UnitCostModel for Profiled<'_> {
        fn schedule(&self) -> &Schedule {
            self.0.sched
        }
        fn op_cost(&self, device: usize, op: &WorkItem) -> OpCost {
            let c = slimpipe::sim::UnitCostModel::op_cost(&self.0, device, op);
            OpCost { duration: c.duration, send_bytes: c.send_bytes }
        }
        fn pipeline_link(&self) -> Link {
            slimpipe::sim::UnitCostModel::pipeline_link(&self.0)
        }
        fn edge_overlap(&self, src: usize, dst: usize) -> f64 {
            slimpipe::sim::UnitCostModel::edge_overlap(&self.0, src, dst)
        }
    }

    #[test]
    fn dense_engine_matches_the_oracle_on_the_profiled_model() {
        let profile = CostProfile::from_json(
            r#"{"regime": "gemm",
                "shape": {"heads": 4, "kv_heads": 2, "head_dim": 8, "ffn": 64, "vocab": 96},
                "f0": 1000.0, "ft": 50.0, "fp": 2.0, "b0": 2000.0, "bt": 110.0, "bp": 4.5,
                "hf0": 500.0, "hft": 80.0, "hb0": 600.0, "hbt": 95.0, "ef": 3.0, "eb": 5.0,
                "ov": 0.25}"#,
        )
        .unwrap();
        // A deliberately slow link so edge transfers matter.
        let link = Link { bandwidth: 1e6, latency: 1e-5 };
        let cases: Vec<(Schedule, Vec<Slicing>)> = vec![
            (
                slimpipe_sched::onefoneb::generate(2, 4).unwrap(),
                [64, 48, 32, 16].iter().map(|&seq| Slicing::even(seq, 1)).collect(),
            ),
            (
                slimpipe_core::schedule::generate(2, 2, 4).unwrap(),
                vec![Slicing::even(64, 4), Slicing::pair_balanced(64, 4)],
            ),
            (
                slimpipe_core::schedule::generate_var(2, &[6, 2, 4]).unwrap(),
                vec![
                    Slicing::explicit(96, vec![0, 30, 48, 60, 72, 84, 96]),
                    Slicing::even(24, 2),
                    Slicing::pair_balanced(48, 4),
                ],
            ),
        ];
        for (sched, slicings) in &cases {
            for overlap in [0.0, 0.5, 1.0] {
                let cm = Profiled(
                    ProfiledCostModel::new(sched, &profile, 2, slicings.clone())
                        .with_comm(link, 256.0, overlap),
                );
                let what = format!("{} overlap={overlap}", sched.name);
                assert_bit_identical(&cm, &what);
                assert_edges_priced_alike(&cm, &what);
            }
        }
    }
}
