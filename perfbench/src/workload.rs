//! The four workloads and the inputs each derives from its seed.
//!
//! The three training workloads share one model and train nearly the same
//! number of tokens per iteration; only the arrangement of those tokens
//! differs, which moves work between the GEMM, attention and exchange
//! layers. See `perfbench/README.md` for why each workload exists.

use slimpipe_core::SlicePolicy;
use slimpipe_exec::schedule::PipelineKind;
use slimpipe_exec::ExecConfig;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LongSlimPipe,
    Short1F1B,
    RaggedPlanned,
    Plan70B,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LongSlimPipe,
        Workload::Short1F1B,
        Workload::RaggedPlanned,
        Workload::Plan70B,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LongSlimPipe => "long_slimpipe",
            Workload::Short1F1B => "short_1f1b",
            Workload::RaggedPlanned => "ragged_planned",
            Workload::Plan70B => "plan_70b",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Training iterations per timed job.
pub const STEPS: usize = 2;
/// Learning rate of every training job.
pub const LR: f32 = 0.1;
/// Microbatch lengths of `ragged_planned`, longest first: 3840 tokens.
/// They do not depend on the seed. Seeded lengths (a shuffle of these
/// four, or ±64-token shifts between them) changed the plan, and with it
/// peak activation memory by up to 15% and throughput by up to 15%
/// between seeds — more than the benchmark's bounds — so the seed picks
/// only the token data and the weights, as in the other workloads.
const RAGGED_LENGTHS: [usize; 4] = [2048, 1024, 512, 256];

/// A training workload: the config it runs (for `ragged_planned`, before
/// planning fills in the slicing) and the schedule it runs under.
pub struct TrainSpec {
    pub cfg: ExecConfig,
    pub kind: PipelineKind,
}

/// The shared model: 4 layers, 2 heads over 1 KV head of width 64
/// (hidden 128), FFN 512, vocabulary 2048, on 2 pipeline stages.
fn shared_model(seed: u64) -> ExecConfig {
    ExecConfig {
        layers: 4,
        heads: 2,
        kv_heads: 1,
        head_dim: 64,
        ffn: 512,
        vocab: 2048,
        stages: 2,
        seed,
        ..ExecConfig::small()
    }
}

pub fn train_spec(w: Workload, seed: u64) -> Option<TrainSpec> {
    let base = shared_model(seed);
    let spec = match w {
        Workload::LongSlimPipe => TrainSpec {
            cfg: ExecConfig {
                microbatches: 2,
                seq: 2048,
                slices: 8,
                slicing: SlicePolicy::Uniform,
                exchange: true,
                vocab_parallel: true,
                async_exchange: true,
                ..base
            },
            kind: PipelineKind::SlimPipe,
        },
        Workload::Short1F1B => TrainSpec {
            cfg: ExecConfig {
                microbatches: 16,
                seq: 256,
                slices: 1,
                exchange: false,
                vocab_parallel: false,
                ..base
            },
            kind: PipelineKind::OneFOneB,
        },
        Workload::RaggedPlanned => TrainSpec {
            cfg: ExecConfig {
                microbatches: 4,
                seq: 2048,
                mb_seqs: Some(RAGGED_LENGTHS.to_vec()),
                slices: 1,
                exchange: true,
                vocab_parallel: true,
                async_exchange: true,
                ..base
            },
            kind: PipelineKind::SlimPipe,
        },
        Workload::Plan70B => return None,
    };
    Some(spec)
}

/// The non-ragged twin of `ragged_planned` the committed cost profile is
/// calibrated on: the planner's calibration harness cannot take ragged
/// configs (its overlap probe keeps `mb_seqs` while forcing two
/// microbatches, which the executor rejects).
pub fn calibration_twin() -> ExecConfig {
    ExecConfig {
        microbatches: 2,
        seq: 1024,
        slices: 4,
        exchange: true,
        vocab_parallel: true,
        ..shared_model(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ragged_planned_trains_3840_tokens_for_every_seed() {
        for seed in [0, 1, 7, 1 << 40, u64::MAX] {
            let cfg = train_spec(Workload::RaggedPlanned, seed).unwrap().cfg;
            assert_eq!(cfg.total_tokens(), 3840, "seed {seed}");
            assert_eq!(cfg.seed, seed);
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn training_workloads_validate_and_share_the_model() {
        for w in Workload::ALL {
            let Some(spec) = train_spec(w, 3) else {
                assert_eq!(w, Workload::Plan70B);
                continue;
            };
            spec.cfg.validate().unwrap();
            assert_eq!(
                (spec.cfg.hidden(), spec.cfg.ffn, spec.cfg.vocab),
                (128, 512, 2048)
            );
            let tokens = spec.cfg.total_tokens();
            assert!((3840..=4096).contains(&tokens), "{w:?}: {tokens}");
        }
        calibration_twin().validate().unwrap();
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
