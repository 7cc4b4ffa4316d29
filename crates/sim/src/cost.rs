//! Per-op cost model: WorkItem → (seconds, bytes to ship downstream).

use slimpipe_cluster::{collectives, Cluster, Efficiency, OpClass, Phase};
use slimpipe_core::vocab_parallel::output_layer_cost;
use slimpipe_core::{SlicePolicy, Slicing};
use slimpipe_model::{causal_pairs, Checkpoint, ModelConfig, BF16};
use slimpipe_sched::{PassKind, Schedule, WorkItem};

/// Everything the cost model needs to know about the run besides the
/// schedule itself.
#[derive(Clone, Debug)]
pub struct PipelineEnv {
    pub model: ModelConfig,
    pub cluster: Cluster,
    pub eff: Efficiency,
    /// Tensor-parallel size `t` (always paired with sequence parallelism).
    pub tp: usize,
    /// Context-parallel size `c` (load-balanced causal CP).
    pub cp: usize,
    /// Expert-parallel size `e` (1 for dense models).
    pub ep: usize,
    /// Full sequence length of one microbatch (tokens). Individual
    /// microbatches may override it through [`PipelineEnv::mb_seqs`].
    pub seq: u64,
    /// Ragged microbatches: per-microbatch sequence lengths (must have one
    /// entry per schedule microbatch when set). `None` = every microbatch
    /// is `seq` tokens.
    pub mb_seqs: Option<Vec<u64>>,
    /// How each sequence is cut into the schedule's slices — the same
    /// policy axis the executor runs, so per-slice workloads agree
    /// (per-microbatch bounds included).
    pub slicing: SlicePolicy,
    /// Activation rematerialisation mode.
    pub ckpt: Checkpoint,
    /// Attention context exchange (§4.2) — balances slice attention loads.
    pub exchange: bool,
    /// Early key-value exchange (§5) — overlaps the KV shipment; when off,
    /// the KV transfer lands on the critical path.
    pub early_kv: bool,
    /// Vocabulary parallelism (§4.3).
    pub vocab_parallel: bool,
    /// Fraction of intra-pass collective time (TP/CP/EP) hidden behind
    /// compute — Megatron-style async collectives overlap roughly half.
    pub comm_overlap: f64,
    /// Fraction of *pipeline-edge* (stage boundary) transfer time hidden
    /// behind compute. The executor's async exchange runtime posts
    /// boundary sends non-blocking and overlaps them with the next unit,
    /// so an overlapped edge charges only the exposed
    /// `(1 − pipeline_overlap)` share of the transfer. 0 = fully
    /// serialized handoff, 1 = fully hidden.
    pub pipeline_overlap: f64,
}

impl PipelineEnv {
    /// A reasonable default environment for unit tests.
    pub fn test_default(model: ModelConfig, seq: u64) -> Self {
        Self {
            model,
            cluster: Cluster::hopper_nvlink(),
            eff: Efficiency::hopper(),
            tp: 8,
            cp: 1,
            ep: 1,
            seq,
            mb_seqs: None,
            slicing: SlicePolicy::Uniform,
            ckpt: Checkpoint::None,
            exchange: true,
            early_kv: true,
            vocab_parallel: true,
            comm_overlap: 0.5,
            pipeline_overlap: 0.0,
        }
    }

    /// Sequence length of microbatch `mb` (ragged-aware).
    pub fn seq_of(&self, mb: usize) -> u64 {
        match &self.mb_seqs {
            Some(seqs) => seqs[mb],
            None => self.seq,
        }
    }
}

/// Duration + downstream traffic of one op.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCost {
    pub duration: f64,
    /// Bytes this op ships to the adjacent stage when it completes
    /// (activations for F, gradients for B).
    pub send_bytes: f64,
}

/// Cost provider contract the discrete-event engine simulates against:
/// anything that can price one work item on one device and describe the
/// inter-stage link. [`CostModel`] (the analytic cluster model) implements
/// it; `slimpipe-planner` plugs in a micro-profiled model of the real
/// executor kernels through the same interface.
///
/// The engine prices each op once. A cross-device pipeline edge is priced
/// from the *producer's* [`OpCost::send_bytes`]: the transfer of a
/// forward's activations to the next stage, or a backward's gradients to
/// the previous one, starts when the producer ends.
pub trait UnitCostModel {
    /// The schedule being priced.
    fn schedule(&self) -> &Schedule;
    /// Duration + downstream traffic of one op on `device`.
    fn op_cost(&self, device: usize, op: &WorkItem) -> OpCost;
    /// Link used between adjacent pipeline stages.
    fn pipeline_link(&self) -> slimpipe_cluster::Link;
    /// Fraction of the `src → dst` pipeline-edge transfer hidden behind
    /// compute (the async exchange runtime's non-blocking posted sends).
    /// Models that don't price overlap keep the serialized default.
    fn edge_overlap(&self, _src: usize, _dst: usize) -> f64 {
        0.0
    }
}

/// Concrete cost model bound to one (schedule, environment) pair.
pub struct CostModel<'a> {
    pub sched: &'a Schedule,
    pub env: &'a PipelineEnv,
    /// Per-microbatch slice partitions under `env.slicing` — the same
    /// `Slicing::pairs` source of truth the executor indexes by, so
    /// simulator and executor agree on per-slice attention workloads by
    /// construction. An entry is `None` only for degenerate `slices > seq`
    /// geometries (which an analytical sweep may price but no executor can
    /// run); those fall back to uniform averages instead of panicking the
    /// estimator.
    slicings: Vec<Option<Slicing>>,
    /// First unit index of each microbatch, of `units` per chunk (see
    /// `engine::unit_offsets`).
    offset: Vec<usize>,
    units: usize,
    /// Every op's cost, priced once: a device enters an op's cost only
    /// through whether its `(device, chunk)` runs the output layer, so
    /// the table holds one entry per (kind, output flag, unit), laid out
    /// by `CostModel::slot`.
    table: Vec<OpCost>,
}

impl<'a> CostModel<'a> {
    pub fn new(sched: &'a Schedule, env: &'a PipelineEnv) -> Self {
        let slicings = (0..sched.microbatches)
            .map(|mb| {
                let seq = env.seq_of(mb);
                let n = sched.slices_of(mb);
                (n as u64 <= seq && seq > 0)
                    .then(|| Slicing::for_microbatch(&env.slicing, mb, seq, n))
            })
            .collect();
        let offset = crate::engine::unit_offsets(sched);
        let units = sched.units_per_chunk();
        let mut cm = Self { sched, env, slicings, offset, units, table: Vec::new() };
        let mut table = vec![OpCost::default(); 6 * units];
        for kind in [PassKind::Forward, PassKind::Backward, PassKind::BackwardWeight] {
            for out in [false, true] {
                for mb in 0..sched.microbatches as u32 {
                    for slice in 0..sched.slices_of(mb as usize) as u32 {
                        let op = WorkItem { kind, mb, slice, chunk: 0 };
                        table[cm.slot(out, &op)] = cm.price(out, &op);
                    }
                }
            }
        }
        cm.table = table;
        cm
    }

    /// Table index of `op` priced with output flag `out`.
    fn slot(&self, out: bool, op: &WorkItem) -> usize {
        let kind = match op.kind {
            PassKind::Forward => 0,
            PassKind::Backward => 1,
            PassKind::BackwardWeight => 2,
        };
        (2 * kind + out as usize) * self.units + self.offset[op.mb as usize] + op.slice as usize
    }

    /// Tokens one pass of `(mb, slice)` processes on one rank (that slice's
    /// actual token length / CP) — from the same [`Slicing`] bounds as the
    /// attention pairs, so non-uniform policies and ragged microbatches
    /// price GEMMs and collectives per-slice too.
    fn unit_tokens(&self, mb: u32, slice: u32) -> f64 {
        let n = self.sched.slices_of(mb as usize);
        let seq = self.env.seq_of(mb as usize);
        let raw = if n > 1 {
            match &self.slicings[mb as usize] {
                Some(s) => s.len(slice as usize) as f64,
                None => seq as f64 / n as f64,
            }
        } else {
            seq as f64
        };
        raw / self.env.cp as f64
    }

    /// Attention pairs one pass attends on one rank, from the same
    /// [`Slicing`] bounds the executor runs.
    fn unit_pairs(&self, mb: u32, slice: u32) -> f64 {
        let n = self.sched.slices_of(mb as usize) as u64;
        let seq = self.env.seq_of(mb as usize);
        let raw = if n > 1 {
            match (&self.slicings[mb as usize], self.env.exchange) {
                // Context exchange equalises the per-round attention load:
                // every pass carries the average share (residual spread is
                // at most one KV slice — §4.2.2). The average is also the
                // degenerate-geometry fallback.
                (_, true) | (None, _) => causal_pairs(0, seq) as f64 / n as f64,
                (Some(s), false) => s.pairs(slice as usize) as f64,
            }
        } else {
            causal_pairs(0, seq) as f64
        };
        raw / self.env.cp as f64
    }

    /// Transformer layers per chunk.
    fn layers_per_chunk(&self) -> f64 {
        self.env.model.layers as f64 / (self.sched.devices * self.sched.chunks) as f64
    }

    /// TP collective time for one layer, one direction (SP: 2 all-gathers +
    /// 2 reduce-scatters per layer per pass).
    fn tp_comm_per_layer(&self, tokens: f64) -> f64 {
        if self.env.tp <= 1 {
            return 0.0;
        }
        let bytes = tokens * self.env.model.hidden as f64 * BF16;
        let link = self.env.cluster.link_for_span(self.env.tp);
        2.0 * (collectives::all_gather(bytes, self.env.tp, link)
            + collectives::reduce_scatter(bytes, self.env.tp, link))
    }

    /// CP communication per layer: the paper's commutated CP ships Q, O and
    /// the softmax normaliser instead of cached KV, recovering the no-cache
    /// volume (§5) — two ring passes of one activation-sized tensor.
    fn cp_comm_per_layer(&self, tokens: f64) -> f64 {
        if self.env.cp <= 1 {
            return 0.0;
        }
        let bytes = tokens * self.env.model.hidden as f64 * BF16;
        let link = self.env.cluster.link_for_span(self.env.tp * self.env.cp);
        2.0 * collectives::all_gather(bytes, self.env.cp, link)
    }

    /// EP all-to-all per MoE layer (dispatch + combine).
    fn ep_comm_per_layer(&self, tokens: f64) -> f64 {
        if self.env.ep <= 1 || !self.env.model.is_moe() {
            return 0.0;
        }
        let bytes = tokens
            * self.env.model.hidden as f64
            * BF16
            * self.env.model.active_experts() as f64;
        let link = self.env.cluster.link_for_span(self.env.tp * self.env.ep);
        2.0 * collectives::all_to_all(bytes, self.env.ep, link)
    }

    /// Exposed (non-overlapped) context-exchange communication per pass.
    fn exchange_comm(&self, mb: u32, tokens: f64) -> f64 {
        let n_mb = self.sched.slices_of(mb as usize);
        if !self.env.exchange || n_mb <= 1 {
            return 0.0;
        }
        let m = &self.env.model;
        let nic = self.env.cluster.nic;
        // One chunk pass exchanges context for its own layers only.
        let layers = self.layers_per_chunk();
        // Q out + O back, per the chunk's layer share, always on the
        // critical path (they exist only when the pass runs).
        let qo = 2.0 * tokens * m.hidden as f64 * BF16 * layers
            / self.env.tp as f64;
        let mut t = collectives::p2p(qo, nic);
        if !self.env.early_kv {
            // Without early exchange, the average shipped KV volume also
            // blocks: ⌊(p-1)/2⌋ slices off-juncture, ⌊(n-1)/2⌋ at junctures
            // (§4.2.3), K and V each. §4.2.3's count is an *average over
            // the round structure*, so the chunk size here is the mean
            // slice length — the moved chunks are other (for non-uniform
            // policies: differently-sized) slices' caches, not the current
            // slice's.
            let (p, n) = (self.sched.devices as f64, n_mb as f64);
            let avg_slices = (((self.sched.devices - 1) / 2) as f64 * (n - p + 1.0)
                + ((n_mb - 1) / 2) as f64 * (p - 1.0))
                / n;
            let mean_tokens = self.env.seq_of(mb as usize) as f64 / n / self.env.cp as f64;
            let kv = 2.0
                * avg_slices
                * mean_tokens
                * m.kv_hidden() as f64
                * BF16
                * layers
                / self.env.tp as f64;
            t += collectives::p2p(kv, nic);
        }
        t
    }

    /// Whether `device` runs its output-layer share when `op` passes
    /// through: under vocabulary parallelism every device does, in its
    /// last local chunk; classically only the device hosting the last
    /// stage does.
    fn runs_output_layer(&self, device: usize, op: &WorkItem) -> bool {
        if self.env.vocab_parallel {
            op.chunk as usize == self.sched.chunks - 1
        } else {
            self.sched.stage_of(device, op.chunk as usize) == self.sched.num_stages() - 1
        }
    }

    /// Output-layer compute added to an op that runs the output layer
    /// (`out`). Returns `(flops, broadcast_seconds)`.
    fn output_layer_share(&self, out: bool, op: &WorkItem) -> (f64, f64) {
        if !out {
            return (0.0, 0.0);
        }
        let m = &self.env.model;
        let tokens = self.unit_tokens(op.mb, op.slice).round() as u64;
        if self.env.vocab_parallel {
            // Distributed over all p devices.
            let cost = output_layer_cost(m, tokens, self.env.tp, self.sched.devices, true);
            let bcast = collectives::broadcast(
                cost.broadcast_bytes,
                self.sched.devices,
                self.env.cluster.nic,
            );
            (cost.flops_per_device, bcast)
        } else {
            // Classic: everything on the device hosting the last stage.
            let cost = output_layer_cost(m, tokens, self.env.tp, self.sched.devices, false);
            (cost.flops_per_device, 0.0)
        }
    }

    /// Cost of one work item on `device`.
    pub fn op_cost(&self, device: usize, op: &WorkItem) -> OpCost {
        self.table[self.slot(self.runs_output_layer(device, op), op)]
    }

    /// Price `op` from the model, with the output-layer share iff `out`.
    fn price(&self, out: bool, op: &WorkItem) -> OpCost {
        let env = self.env;
        let m = &env.model;
        let layers = self.layers_per_chunk();
        let tokens = self.unit_tokens(op.mb, op.slice);
        let pairs = self.unit_pairs(op.mb, op.slice);
        let lf = m.layer_fwd_flops(tokens.round() as u64, pairs.round() as u128);
        let gemm_f = lf.gemm * layers / env.tp as f64;
        let attn_f = lf.attn * layers / env.tp as f64;
        let peak = env.cluster.gpu.peak_flops;
        let mean_kv = if tokens > 0.0 { pairs / tokens } else { 0.0 };
        let (out_flops, out_bcast) = self.output_layer_share(out, op);

        let fwd_compute = |effphase: Phase| -> f64 {
            env.eff.op_time(OpClass::Gemm, effphase, gemm_f, tokens, peak)
                + env.eff.op_time(OpClass::Attention, effphase, attn_f, mean_kv, peak)
        };

        let duration = match op.kind {
            PassKind::Forward => {
                fwd_compute(Phase::Forward)
                    + env.eff.op_time(OpClass::Gemm, Phase::Forward, out_flops, tokens, peak)
                    + out_bcast
                    + layers
                        * (self.tp_comm_per_layer(tokens) + self.cp_comm_per_layer(tokens)
                            + self.ep_comm_per_layer(tokens))
                        * (1.0 - env.comm_overlap)
                    + layers * env.eff.layer_overhead(Phase::Forward)
                    + self.exchange_comm(op.mb, tokens)
            }
            PassKind::Backward => {
                let (gemm_mult, attn_mult) = if self.sched.split_backward {
                    // Input-grad half: dX GEMMs (1×) + full attention bwd (2×).
                    (1.0, 2.0)
                } else {
                    (2.0, 2.0)
                };
                let recompute = m.recompute_fraction(env.ckpt) * fwd_compute(Phase::Forward);
                env.eff.op_time(OpClass::Gemm, Phase::Backward, gemm_f * gemm_mult, tokens, peak)
                    + env.eff.op_time(
                        OpClass::Attention,
                        Phase::Backward,
                        attn_f * attn_mult,
                        mean_kv,
                        peak,
                    )
                    + env.eff.op_time(
                        OpClass::Gemm,
                        Phase::Backward,
                        out_flops * 2.0,
                        tokens,
                        peak,
                    )
                    + recompute
                    + layers
                        * (self.tp_comm_per_layer(tokens) + self.cp_comm_per_layer(tokens)
                            + self.ep_comm_per_layer(tokens))
                        * (1.0 - env.comm_overlap)
                    + layers * env.eff.layer_overhead(Phase::Backward)
                    + self.exchange_comm(op.mb, tokens)
            }
            PassKind::BackwardWeight => {
                // Weight-grad half: dW GEMMs only (attention has no weights).
                env.eff.op_time(OpClass::Gemm, Phase::Backward, gemm_f, tokens, peak)
                    + layers * env.eff.layer_overhead(Phase::Forward)
            }
        };

        // Boundary tensor shipped to the adjacent stage (SP-sharded).
        let send_bytes = match op.kind {
            PassKind::BackwardWeight => 0.0,
            _ => tokens * m.hidden as f64 * BF16 / env.tp as f64,
        };
        OpCost { duration, send_bytes }
    }

    /// Link used between adjacent pipeline stages.
    pub fn pipeline_link(&self) -> slimpipe_cluster::Link {
        self.env
            .cluster
            .pipeline_link(self.env.tp * self.env.cp * self.env.ep.max(1))
    }
}

impl UnitCostModel for CostModel<'_> {
    fn schedule(&self) -> &Schedule {
        self.sched
    }

    fn op_cost(&self, device: usize, op: &WorkItem) -> OpCost {
        CostModel::op_cost(self, device, op)
    }

    fn pipeline_link(&self) -> slimpipe_cluster::Link {
        CostModel::pipeline_link(self)
    }

    fn edge_overlap(&self, _src: usize, _dst: usize) -> f64 {
        self.env.pipeline_overlap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimpipe_model::ModelConfig;

    fn env() -> PipelineEnv {
        PipelineEnv::test_default(ModelConfig::llama_13b(), 131_072)
    }

    /// Every op's table entry is the price of that op on its device —
    /// across kinds, per-microbatch slice counts, and both output-layer
    /// placements.
    #[test]
    fn tabulated_costs_equal_fresh_prices() {
        let schedules = [
            slimpipe_core::schedule::generate_var(4, &[8, 4, 12]).unwrap(),
            slimpipe_sched::zbv::generate_zbv(4, 4, slimpipe_sched::zbv::ZbCosts::default())
                .unwrap(),
            slimpipe_core::interleaved::generate(4, 2, 4, 8).unwrap(),
        ];
        for sched in &schedules {
            for vocab_parallel in [false, true] {
                let e = PipelineEnv {
                    mb_seqs: Some((0..sched.microbatches as u64).map(|mb| 65_536 >> mb).collect()),
                    slicing: SlicePolicy::PairBalanced,
                    exchange: false,
                    vocab_parallel,
                    ..env()
                };
                let cm = CostModel::new(sched, &e);
                for (d, ops) in sched.ops.iter().enumerate() {
                    for op in ops {
                        let got = cm.op_cost(d, op);
                        let want = cm.price(cm.runs_output_layer(d, op), op);
                        assert_eq!(got.duration.to_bits(), want.duration.to_bits(), "{op:?}@{d}");
                        assert_eq!(got.send_bytes.to_bits(), want.send_bytes.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn backward_costs_more_than_forward() {
        let env = env();
        let sched = slimpipe_sched::onefoneb::generate(4, 4).unwrap();
        let cm = CostModel::new(&sched, &env);
        let f = cm.op_cost(1, &WorkItem::f(0, 0, 0)).duration;
        let b = cm.op_cost(1, &WorkItem::b(0, 0, 0)).duration;
        assert!(b > 1.5 * f, "f={f} b={b}");
    }

    #[test]
    fn without_exchange_later_slices_cost_more() {
        let mut e = env();
        e.exchange = false;
        let sched = slimpipe_core::schedule::generate(4, 2, 8).unwrap();
        let cm = CostModel::new(&sched, &e);
        let first = cm.op_cost(0, &WorkItem::f(0, 0, 0)).duration;
        let last = cm.op_cost(0, &WorkItem::f(0, 7, 0)).duration;
        assert!(last > 1.3 * first, "first={first} last={last}");
    }

    #[test]
    fn with_exchange_slice_costs_are_equal() {
        let e = env();
        let sched = slimpipe_core::schedule::generate(4, 2, 8).unwrap();
        let cm = CostModel::new(&sched, &e);
        let first = cm.op_cost(0, &WorkItem::f(0, 0, 0)).duration;
        let last = cm.op_cost(0, &WorkItem::f(0, 7, 0)).duration;
        assert!((last - first).abs() / first < 1e-9);
    }

    #[test]
    fn full_ckpt_backward_includes_a_forward_replay() {
        let mut e = env();
        let sched = slimpipe_sched::onefoneb::generate(4, 4).unwrap();
        e.ckpt = Checkpoint::None;
        let b_plain = CostModel::new(&sched, &e).op_cost(0, &WorkItem::b(0, 0, 0)).duration;
        e.ckpt = Checkpoint::Full;
        let b_ckpt = CostModel::new(&sched, &e).op_cost(0, &WorkItem::b(0, 0, 0)).duration;
        assert!(b_ckpt > b_plain * 1.2, "plain={b_plain} ckpt={b_ckpt}");
    }

    #[test]
    fn weight_half_is_cheapest_at_long_context() {
        // §2.2: T_w = 0 for attention, so at long context W ≪ B.
        let e = PipelineEnv::test_default(ModelConfig::llama_13b(), 262_144);
        let sched = slimpipe_sched::zbv::generate_zbv(
            4,
            4,
            slimpipe_sched::zbv::ZbCosts::default(),
        )
        .unwrap();
        let cm = CostModel::new(&sched, &e);
        let b = cm.op_cost(0, &WorkItem::b(0, 0, 0)).duration;
        let w = cm.op_cost(0, &WorkItem::w(0, 0, 0)).duration;
        assert!(w < 0.4 * b, "b={b} w={w}");
    }

    #[test]
    fn vocab_parallel_moves_output_off_last_device() {
        // Short context: the vocabulary GEMM is a large share of a pass
        // (§3 — the imbalance is worst when attention doesn't dominate).
        let mut e = PipelineEnv::test_default(ModelConfig::llama_13b(), 32_768);
        let sched = slimpipe_sched::onefoneb::generate(4, 4).unwrap();
        e.vocab_parallel = false;
        let cm = CostModel::new(&sched, &e);
        let f_first = cm.op_cost(0, &WorkItem::f(0, 0, 0)).duration;
        let f_last = cm.op_cost(3, &WorkItem::f(0, 0, 0)).duration;
        assert!(
            f_last > 1.05 * f_first,
            "last device should carry the GEMM: first={f_first} last={f_last}"
        );
        e.vocab_parallel = true;
        let cm = CostModel::new(&sched, &e);
        let f_first = cm.op_cost(0, &WorkItem::f(0, 0, 0)).duration;
        let f_last = cm.op_cost(3, &WorkItem::f(0, 0, 0)).duration;
        assert!((f_last - f_first).abs() / f_first < 0.05);
    }
}
