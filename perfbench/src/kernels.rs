//! Tensor-layer probes at fixed shapes taken from the shared model: the
//! packed GEMM at the FFN up-projection shape, a 512³ packed GEMM as the
//! host's peak, and chunked attention of one 256-token slice against 8 KV
//! chunks (the last slice of a 2048-token microbatch cut 8 ways).

use crate::spans::Spans;
use crate::stats::{gflops, median};
use slimpipe_tensor::attention::{backward_chunked, forward_chunked, HeadCfg};
use slimpipe_tensor::init::seeded_uniform;
use slimpipe_tensor::matmul::matmul_fused;
use slimpipe_tensor::{Epilogue, PackedWeight, Prologue, Tensor};
use std::hint::black_box;

/// Timed calls per probe; each probe reports the median call.
const CALLS: usize = 15;

pub struct KernelRates {
    pub gemm_gflops: f64,
    pub gemm_peak_gflops: f64,
    pub attn_fwd_ms: f64,
    pub attn_bwd_ms: f64,
}

fn gemm_rate(sp: &mut Spans, name: &'static str, m: usize, k: usize, n: usize) -> f64 {
    let a = seeded_uniform(m, k, 11);
    let w = PackedWeight::new(seeded_uniform(k, n, 12));
    // One untimed call fills the buffer pool for this shape.
    matmul_fused(&a, w.nn(), Prologue::None, Epilogue::None).recycle();
    let secs: Vec<f64> = (0..CALLS)
        .map(|_| {
            let (c, d) = sp.time("tensor", name, || {
                black_box(matmul_fused(
                    black_box(&a),
                    w.nn(),
                    Prologue::None,
                    Epilogue::None,
                ))
            });
            c.recycle();
            d
        })
        .collect();
    gflops(2.0 * (m * k * n) as f64, median(&secs))
}

pub fn probe(sp: &mut Spans) -> KernelRates {
    let gemm_gflops = gemm_rate(sp, "gemm_ffn", 256, 128, 512);
    let gemm_peak_gflops = gemm_rate(sp, "gemm_512", 512, 512, 512);

    let cfg = HeadCfg::new(2, 1, 64);
    let (slice, chunks_n) = (256usize, 8usize);
    let q = seeded_uniform(slice, cfg.q_width(), 21);
    let kv: Vec<(Tensor, Tensor)> = (0..chunks_n)
        .map(|c| {
            (
                seeded_uniform(slice, cfg.kv_width(), 30 + c as u64),
                seeded_uniform(slice, cfg.kv_width(), 60 + c as u64),
            )
        })
        .collect();
    let chunks: Vec<(&Tensor, &Tensor)> = kv.iter().map(|(k, v)| (k, v)).collect();
    let offsets: Vec<usize> = (0..chunks_n).map(|c| c * slice).collect();
    let q_off = (chunks_n - 1) * slice;
    let d_o = seeded_uniform(slice, cfg.q_width(), 90);
    let fwd = forward_chunked(&q, &chunks, &offsets, cfg, q_off);
    let mut fwd_s = Vec::with_capacity(CALLS);
    let mut bwd_s = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        let (p, d) = sp.time("tensor", "attn_fwd", || {
            black_box(forward_chunked(
                black_box(&q),
                &chunks,
                &offsets,
                cfg,
                q_off,
            ))
        });
        p.recycle();
        fwd_s.push(d);
        let ((dq, dkv), d) = sp.time("tensor", "attn_bwd", || {
            black_box(backward_chunked(
                &q, &chunks, &offsets, &d_o, &fwd.o, &fwd.lse, cfg, q_off,
            ))
        });
        dq.recycle();
        for (dk, dv) in dkv {
            dk.recycle();
            dv.recycle();
        }
        bwd_s.push(d);
    }
    fwd.recycle();
    KernelRates {
        gemm_gflops,
        gemm_peak_gflops,
        attn_fwd_ms: 1e3 * median(&fwd_s),
        attn_bwd_ms: 1e3 * median(&bwd_s),
    }
}
