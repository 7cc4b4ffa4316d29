//! Kernel micro-benchmarks: the tensor substrate's hot paths — GEMM
//! orientations (tiled vs. the seed's i-k-j loops), chunked attention
//! forward/backward and its thread scaling, online-softmax merging, the
//! sharded cross-entropy, and the buffer pool.
//!
//! Running `cargo bench --bench kernels` writes `BENCH_kernels.json` — the
//! perf snapshot later PRs regress against. The headline series:
//!
//! * `matmul/seed_ikj/{512,1024}` vs `matmul/tiled/{512,1024}` — the tiled
//!   micro-kernel must stay ≥ 2× ahead of the seed kernel;
//! * `attention_scaling/fwd_threads_{1,max}` — (head, q-block) parallel
//!   forward; on multi-core hosts the `max` series must beat `1`;
//! * `pool/take_recycle` vs `pool/fresh_alloc` — the steady-state
//!   allocation the pool removes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slimpipe_tensor::attention::{
    backward_chunked, forward_chunked, forward_full, merge_partials, partial, HeadCfg,
};
use slimpipe_tensor::crossentropy::{combine_stats, forward_backward, shard_stats};
use slimpipe_tensor::init::{seeded_tokens, seeded_uniform};
use slimpipe_tensor::matmul::{matmul, matmul_fused, matmul_fused_acc, matmul_nt, matmul_tn, PackedMat};
use slimpipe_tensor::{pool, rmsnorm, swiglu, Epilogue, PackedWeight, Prologue, Tensor};
use std::hint::black_box;

// ---- the seed kernels (pre-tiling), kept verbatim as the regression
// baseline: sequential i-k-j with the dense-data `== 0.0` branch ----

fn seed_ikj(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Tensor::zeros(m, n);
    let bs = b.as_slice();
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = &mut c.as_mut_slice()[i * n..(i + 1) * n];
        for kk in 0..k {
            let aik = a_row[kk];
            if aik == 0.0 {
                continue;
            }
            let b_row = &bs[kk * n..(kk + 1) * n];
            for (o, bb) in out_row.iter_mut().zip(b_row) {
                *o += aik * bb;
            }
        }
    }
    c
}

fn seed_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = b.rows();
    let mut c = Tensor::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = &mut c.as_mut_slice()[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = b.row(j);
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a_row[kk] * b_row[kk];
            }
            *o = acc;
        }
    }
    c
}

fn seed_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = a.shape();
    let n = b.cols();
    let mut c = Tensor::zeros(m, n);
    let bs = b.as_slice();
    for i in 0..m {
        for kk in 0..k {
            let aki = a.at(kk, i);
            if aki == 0.0 {
                continue;
            }
            let b_row = &bs[kk * n..(kk + 1) * n];
            let out_row = &mut c.as_mut_slice()[i * n..(i + 1) * n];
            for (o, bb) in out_row.iter_mut().zip(b_row) {
                *o += aki * bb;
            }
        }
    }
    c
}

/// The acceptance series: tiled vs. seed at the paper-relevant sizes.
fn bench_matmul_vs_seed(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    for &n in &[256usize, 512, 1024] {
        let a = seeded_uniform(n, n, 1);
        let b = seeded_uniform(n, n, 2);
        g.bench_with_input(BenchmarkId::new("seed_ikj", n), &n, |bch, _| {
            bch.iter(|| black_box(seed_ikj(&a, &b)))
        });
        g.bench_with_input(BenchmarkId::new("tiled", n), &n, |bch, _| {
            bch.iter(|| black_box(matmul(&a, &b)))
        });
    }
    // The backward orientations at the mid size.
    let n = 512usize;
    let a = seeded_uniform(n, n, 1);
    let b = seeded_uniform(n, n, 2);
    g.bench_with_input(BenchmarkId::new("seed_nt", n), &n, |bch, _| {
        bch.iter(|| black_box(seed_nt(&a, &b)))
    });
    g.bench_with_input(BenchmarkId::new("tiled_nt", n), &n, |bch, _| {
        bch.iter(|| black_box(matmul_nt(&a, &b)))
    });
    g.bench_with_input(BenchmarkId::new("seed_tn", n), &n, |bch, _| {
        bch.iter(|| black_box(seed_tn(&a, &b)))
    });
    g.bench_with_input(BenchmarkId::new("tiled_tn", n), &n, |bch, _| {
        bch.iter(|| black_box(matmul_tn(&a, &b)))
    });
    g.finish();
}

/// The persistent packed-weight cache: the steady-state call (pack reused
/// across all `S × M` GEMMs of a step) vs the per-call-packing path, plus
/// the one-off pack and the in-place optimizer sync it amortises.
fn bench_gemm_packed_cache(c: &mut Criterion) {
    let n = 512usize;
    let a = seeded_uniform(n, n, 21);
    let w = seeded_uniform(n, n, 22);
    let grad = seeded_uniform(n, n, 23);
    let pw = PackedWeight::new(w.clone());
    let mut g = c.benchmark_group("gemm_packed_cache");
    g.bench_function("nn_packed/512", |b| {
        b.iter(|| black_box(matmul_fused(&a, pw.nn(), Prologue::None, Epilogue::None)).recycle())
    });
    g.bench_function("nn_unpacked/512", |b| b.iter(|| black_box(matmul(&a, &w)).recycle()));
    g.bench_function("nt_packed/512", |b| {
        b.iter(|| black_box(matmul_fused(&a, pw.nt(), Prologue::None, Epilogue::None)).recycle())
    });
    g.bench_function("nt_unpacked/512", |b| b.iter(|| black_box(matmul_nt(&a, &w)).recycle()));
    // What packing costs (once per weight per run) and what the in-place
    // optimizer sync costs per step.
    g.bench_function("pack_nn/512", |b| b.iter(|| black_box(PackedMat::pack_nn(&w))));
    let mut pw_mut = PackedWeight::new(w.clone());
    g.bench_function("sgd_axpy_sync/512", |b| b.iter(|| pw_mut.axpy(-1e-12, &grad)));
    g.finish();
}

/// Fused prologue/epilogue GEMMs vs the separate-pass composition at a
/// layer-shaped size (256 tokens × 512 hidden) — what the fusion buys per
/// projection.
fn bench_fused_layer(c: &mut Criterion) {
    let (t, h) = (256usize, 512usize);
    let x = seeded_uniform(t, h, 31);
    let w = seeded_uniform(h, h, 32);
    let gain: Vec<f32> = (0..h).map(|i| 1.0 + 0.001 * i as f32).collect();
    let gate = seeded_uniform(t, h, 33);
    let up = seeded_uniform(t, h, 34);
    let resid = seeded_uniform(t, h, 35);
    let pw = PackedWeight::new(w.clone());
    let mut g = c.benchmark_group("fused_layer");
    g.bench_function("norm_gemm_fused", |b| {
        b.iter(|| {
            let inv = rmsnorm::inv_rms(&x);
            let y = matmul_fused(
                &x,
                pw.nn(),
                Prologue::NormRows { inv: &inv, gain: &gain },
                Epilogue::None,
            );
            pool::recycle(inv);
            black_box(y).recycle();
        })
    });
    g.bench_function("norm_gemm_unfused", |b| {
        b.iter(|| {
            let normed = rmsnorm::forward(&x, &gain);
            let y = matmul(&normed, &w);
            normed.recycle();
            black_box(y).recycle();
        })
    });
    g.bench_function("swiglu_resid_gemm_fused", |b| {
        b.iter(|| {
            let y = matmul_fused(
                &gate,
                pw.nn(),
                Prologue::SwigluRows { up: &up },
                Epilogue::Add(&resid),
            );
            black_box(y).recycle();
        })
    });
    g.bench_function("swiglu_resid_gemm_unfused", |b| {
        b.iter(|| {
            let act = swiglu::forward(&gate, &up);
            let mut y = matmul(&act, &w);
            act.recycle();
            y.add_assign(&resid);
            black_box(y).recycle();
        })
    });
    g.finish();
}

fn bench_attention(c: &mut Criterion) {
    let cfg = HeadCfg::new(8, 2, 16);
    let mut g = c.benchmark_group("attention");
    for &s in &[128usize, 256] {
        let q = seeded_uniform(s, cfg.q_width(), 3);
        let k = seeded_uniform(s, cfg.kv_width(), 4);
        let v = seeded_uniform(s, cfg.kv_width(), 5);
        g.bench_with_input(BenchmarkId::new("monolithic_fwd", s), &s, |bch, _| {
            bch.iter(|| black_box(forward_full(&q, &k, &v, cfg)))
        });
        // Chunked (8 chunks) — the SlimPipe access pattern.
        let lc = s / 8;
        let ks: Vec<Tensor> = (0..8).map(|c| k.rows_slice(c * lc, lc)).collect();
        let vs: Vec<Tensor> = (0..8).map(|c| v.rows_slice(c * lc, lc)).collect();
        let chunks: Vec<(&Tensor, &Tensor)> = ks.iter().zip(vs.iter()).collect();
        let offsets: Vec<usize> = (0..8).map(|c| c * lc).collect();
        g.bench_with_input(BenchmarkId::new("chunked_fwd_8", s), &s, |bch, _| {
            bch.iter(|| black_box(forward_chunked(&q, &chunks, &offsets, cfg, 0)))
        });
        let fwd = forward_chunked(&q, &chunks, &offsets, cfg, 0);
        let d_o = seeded_uniform(s, cfg.q_width(), 6);
        g.bench_with_input(BenchmarkId::new("chunked_bwd_8", s), &s, |bch, _| {
            bch.iter(|| {
                black_box(backward_chunked(
                    &q, &chunks, &offsets, &d_o, &fwd.o, &fwd.lse, cfg, 0,
                ))
            })
        });
    }
    g.finish();
}

/// Attention through the blocked micro-kernel at a realistic head shape
/// (8 heads × 64-dim, GQA `n_kv = 2`), chunked forward and backward at
/// seq 512 and 2048. The series ids keep their `_gemm` suffix so committed
/// snapshots from when a scalar twin existed still gate them.
fn bench_attention_gemm(c: &mut Criterion) {
    let cfg = HeadCfg::new(8, 2, 64);
    let mut g = c.benchmark_group("attention_gemm");
    for &s in &[512usize, 2048] {
        let q = seeded_uniform(s, cfg.q_width(), 41);
        let k = seeded_uniform(s, cfg.kv_width(), 42);
        let v = seeded_uniform(s, cfg.kv_width(), 43);
        // Chunked (8 chunks) — the SlimPipe access pattern.
        let lc = s / 8;
        let ks: Vec<Tensor> = (0..8).map(|c| k.rows_slice(c * lc, lc)).collect();
        let vs: Vec<Tensor> = (0..8).map(|c| v.rows_slice(c * lc, lc)).collect();
        let chunks: Vec<(&Tensor, &Tensor)> = ks.iter().zip(vs.iter()).collect();
        let offsets: Vec<usize> = (0..8).map(|c| c * lc).collect();
        let fwd = forward_chunked(&q, &chunks, &offsets, cfg, 0);
        let d_o = seeded_uniform(s, cfg.q_width(), 44);
        g.bench_with_input(BenchmarkId::new("fwd_gemm", s), &s, |bch, _| {
            bch.iter(|| black_box(forward_chunked(&q, &chunks, &offsets, cfg, 0)))
        });
        g.bench_with_input(BenchmarkId::new("bwd_gemm", s), &s, |bch, _| {
            bch.iter(|| {
                black_box(backward_chunked(&q, &chunks, &offsets, &d_o, &fwd.o, &fwd.lse, cfg, 0))
            })
        });
    }
    g.finish();
}

/// The fused SwiGLU backward (activation gradients folded into the gate/up
/// projection GEMMs as prologues) vs. materialising `d_gate`/`d_up` with
/// `swiglu::backward` and running plain GEMMs — the `d_normed` composition
/// the layer backward actually executes.
fn bench_fused_swiglu_bwd(c: &mut Criterion) {
    let (t, h) = (256usize, 512usize);
    let d_act = seeded_uniform(t, h, 51);
    let gate = seeded_uniform(t, h, 52);
    let up = seeded_uniform(t, h, 53);
    let wg = PackedWeight::new(seeded_uniform(h, h, 54));
    let wu = PackedWeight::new(seeded_uniform(h, h, 55));
    let mut g = c.benchmark_group("fused_swiglu_bwd");
    g.bench_function("fused", |b| {
        b.iter(|| {
            let pro_dg = Prologue::DSwigluGateRows { gate: &gate, up: &up };
            let pro_du = Prologue::DSwigluUpRows { gate: &gate };
            let mut dn = matmul_fused(&d_act, wg.nt(), pro_dg, Epilogue::None);
            matmul_fused_acc(&mut dn, &d_act, wu.nt(), pro_du);
            black_box(dn).recycle();
        })
    });
    g.bench_function("unfused", |b| {
        b.iter(|| {
            let (d_gate, d_up) = swiglu::backward(&gate, &up, &d_act);
            let mut dn = matmul_fused(&d_gate, wg.nt(), Prologue::None, Epilogue::None);
            matmul_fused_acc(&mut dn, &d_up, wu.nt(), Prologue::None);
            d_gate.recycle();
            d_up.recycle();
            black_box(dn).recycle();
        })
    });
    g.finish();
}

/// Thread scaling of the (head, q-block)-parallel forward at 8 heads and
/// of the (KV-head group, q-block)-parallel backward at `n_kv = 1` — the
/// MQA case that used to serialise on its single group. `*_threads_1` pins
/// the kernel to one thread; `*_threads_max` uses every available core (on
/// a single-core host the series coincide — the snapshot's `threads` /
/// `rayon_num_threads` metadata records which regime was measured).
fn bench_attention_scaling(c: &mut Criterion) {
    let cfg = HeadCfg::new(8, 8, 16);
    let s = 256;
    let q = seeded_uniform(s, cfg.q_width(), 7);
    let k = seeded_uniform(s, cfg.kv_width(), 8);
    let v = seeded_uniform(s, cfg.kv_width(), 9);
    let max = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut g = c.benchmark_group("attention_scaling");
    g.bench_function("fwd_threads_1", |b| {
        b.iter(|| rayon::with_num_threads(1, || black_box(forward_full(&q, &k, &v, cfg))))
    });
    g.bench_function("fwd_threads_max", |b| {
        b.iter(|| rayon::with_num_threads(max, || black_box(forward_full(&q, &k, &v, cfg))))
    });

    // MQA backward: one KV head, so all parallelism comes from q-blocks.
    let mqa = HeadCfg::new(8, 1, 16);
    let qm = seeded_uniform(s, mqa.q_width(), 17);
    let km = seeded_uniform(s, mqa.kv_width(), 18);
    let vm = seeded_uniform(s, mqa.kv_width(), 19);
    let d_o = seeded_uniform(s, mqa.q_width(), 20);
    let fwd = forward_full(&qm, &km, &vm, mqa);
    let bwd = |threads: usize| {
        rayon::with_num_threads(threads, || {
            black_box(backward_chunked(
                &qm,
                &[(&km, &vm)],
                &[0],
                &d_o,
                &fwd.o,
                &fwd.lse,
                mqa,
                0,
            ))
        })
    };
    g.bench_function("bwd_mqa_threads_1", |b| b.iter(|| bwd(1)));
    g.bench_function("bwd_mqa_threads_max", |b| b.iter(|| bwd(max)));
    g.finish();
}

fn bench_online_softmax_merge(c: &mut Criterion) {
    let cfg = HeadCfg::new(8, 8, 16);
    let s = 256;
    let q = seeded_uniform(s, cfg.q_width(), 7);
    let k = seeded_uniform(2 * s, cfg.q_width(), 8);
    let v = seeded_uniform(2 * s, cfg.q_width(), 9);
    let p0 = partial(&q, &k.rows_slice(0, s), &v.rows_slice(0, s), cfg, s, 0);
    let p1 = partial(&q, &k.rows_slice(s, s), &v.rows_slice(s, s), cfg, s, s);
    c.bench_function("merge_partials_256x128", |b| {
        b.iter(|| black_box(merge_partials(&p0, &p1, cfg)))
    });
}

fn bench_crossentropy(c: &mut Criterion) {
    let (rows, vocab) = (256usize, 4096usize);
    let logits = seeded_uniform(rows, vocab, 10);
    let targets = seeded_tokens(rows, vocab, 11);
    let mut g = c.benchmark_group("crossentropy");
    g.bench_function("monolithic", |b| {
        b.iter(|| black_box(forward_backward(&logits, &targets)))
    });
    g.bench_function("sharded_4way_stats", |b| {
        b.iter(|| {
            let w = vocab / 4;
            let stats: Vec<_> = (0..4)
                .map(|s| shard_stats(&logits.cols_slice(s * w, w), &targets, s * w))
                .collect();
            black_box(combine_stats(&stats))
        })
    });
    g.finish();
}

/// What the pool buys per buffer: a warm take+recycle against a fresh
/// `vec![0.0; n]` allocation of the same size.
fn bench_pool(c: &mut Criterion) {
    let len = 512 * 512;
    let mut g = c.benchmark_group("pool");
    // Prime the size class.
    pool::recycle(vec![0.0f32; len]);
    g.bench_function("take_recycle", |b| {
        b.iter(|| {
            let v = pool::take_raw(len);
            pool::recycle(black_box(v));
        })
    });
    g.bench_function("fresh_alloc", |b| {
        b.iter(|| {
            let v = vec![0.0f32; len];
            black_box(&v);
            drop(v);
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_matmul_vs_seed,
    bench_gemm_packed_cache,
    bench_fused_layer,
    bench_fused_swiglu_bwd,
    bench_attention,
    bench_attention_gemm,
    bench_attention_scaling,
    bench_online_softmax_merge,
    bench_crossentropy,
    bench_pool,
);
criterion_main!(benches);
