//! Property-based tests on the kernel contracts the SlimPipe algorithms
//! rely on: GEMM algebra, online-softmax merge associativity/exactness,
//! chunked-attention equivalence under arbitrary splits, and sharded
//! cross-entropy equivalence under arbitrary shardings.

use proptest::prelude::*;
use slimpipe_tensor::attention::{
    backward_chunked, forward_chunked, forward_full, merge_partials, partial, HeadCfg,
};
use slimpipe_tensor::crossentropy::{
    combine_stats, forward_backward, loss_from_stats, shard_stats,
};
use slimpipe_tensor::init::{seeded_tokens, seeded_uniform};
use slimpipe_tensor::matmul::{
    matmul, matmul_fused, matmul_fused_acc, matmul_nt, matmul_tn, matmul_tn_acc, with_kernel_nr,
};
use slimpipe_tensor::{pool, rmsnorm, swiglu, Epilogue, PackedWeight, Prologue, Tensor};

/// Reference GEMM: the j-innermost textbook triple loop.
fn naive_gemm(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Tensor::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.at(i, kk) * b.at(kk, j);
            }
            *c.at_mut(i, j) = acc;
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tiled GEMM ≡ naive GEMM in all three orientations for arbitrary
    /// shapes — the sampled ranges straddle every tile boundary (MR/NR = 8,
    /// MC = 64, KC = 256) and include degenerate 1×1 and prime dims; the
    /// k range pushes `m·n·k` across the small-kernel/blocked-kernel
    /// threshold so both code paths are exercised.
    #[test]
    fn tiled_gemm_equals_naive_all_orientations(
        m in 1usize..131,
        k in 1usize..600,
        n in 1usize..131,
        seed in 0u64..1000,
    ) {
        let a = seeded_uniform(m, k, seed);
        let b = seeded_uniform(k, n, seed + 1);
        let want = naive_gemm(&a, &b);
        // Tolerance scales with the dot-product length (summation order
        // differs between the blocked kernel and the reference).
        let tol = 1e-6 * (k as f32).sqrt() * 8.0;
        let got = matmul(&a, &b);
        prop_assert!(got.max_abs_diff(&want) < tol, "nn ({m},{k},{n})");
        let got_nt = matmul_nt(&a, &b.transposed());
        prop_assert!(got_nt.max_abs_diff(&want) < tol, "nt ({m},{k},{n})");
        let got_tn = matmul_tn(&a.transposed(), &b);
        prop_assert!(got_tn.max_abs_diff(&want) < tol, "tn ({m},{k},{n})");
    }

    /// (A·B)ᵀ == Bᵀ·Aᵀ via the specialised orientations.
    #[test]
    fn gemm_transpose_identity(m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..1000) {
        let a = seeded_uniform(m, k, seed);
        let b = seeded_uniform(k, n, seed + 1);
        let ab = matmul(&a, &b);
        let bt_at = matmul(&b.transposed(), &a.transposed());
        prop_assert!(ab.transposed().max_abs_diff(&bt_at) < 1e-4);
        // nt/tn consistency with plain matmul.
        prop_assert!(matmul_nt(&a, &b.transposed()).max_abs_diff(&ab) < 1e-4);
        prop_assert!(matmul_tn(&a.transposed(), &b).max_abs_diff(&ab) < 1e-4);
    }

    /// Matmul distributes over addition: A·(B + C) = A·B + A·C.
    #[test]
    fn gemm_distributes(m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..1000) {
        let a = seeded_uniform(m, k, seed);
        let b = seeded_uniform(k, n, seed + 1);
        let c = seeded_uniform(k, n, seed + 2);
        let mut bc = b.clone();
        bc.add_assign(&c);
        let lhs = matmul(&a, &bc);
        let mut rhs = matmul(&a, &b);
        rhs.add_assign(&matmul(&a, &c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    /// Chunked attention equals monolithic attention for ANY chunk split.
    #[test]
    fn attention_split_invariance(
        chunks in 1usize..6,
        chunk_len in 1usize..6,
        heads_pow in 0u32..2,
        seed in 0u64..500,
    ) {
        let heads = 1usize << heads_pow;
        let cfg = HeadCfg::new(heads, heads, 4);
        let s = chunks * chunk_len;
        let q = seeded_uniform(s, cfg.q_width(), seed);
        let k = seeded_uniform(s, cfg.kv_width(), seed + 1);
        let v = seeded_uniform(s, cfg.kv_width(), seed + 2);
        let full = forward_full(&q, &k, &v, cfg);
        let ks: Vec<Tensor> = (0..chunks).map(|c| k.rows_slice(c * chunk_len, chunk_len)).collect();
        let vs: Vec<Tensor> = (0..chunks).map(|c| v.rows_slice(c * chunk_len, chunk_len)).collect();
        let ch: Vec<(&Tensor, &Tensor)> = ks.iter().zip(vs.iter()).collect();
        let offs: Vec<usize> = (0..chunks).map(|c| c * chunk_len).collect();
        let got = forward_chunked(&q, &ch, &offs, cfg, 0);
        prop_assert!(got.o.max_abs_diff(&full.o) < 1e-4);
    }

    /// Online-softmax merge is commutative and associative over disjoint
    /// KV ranges — the property context exchange depends on.
    #[test]
    fn merge_is_commutative_and_associative(
        lq in 1usize..6,
        lc in 1usize..5,
        seed in 0u64..500,
    ) {
        let cfg = HeadCfg::new(2, 2, 4);
        let q = seeded_uniform(lq, cfg.q_width(), seed);
        let total = 3 * lc;
        let k = seeded_uniform(total, cfg.kv_width(), seed + 1);
        let v = seeded_uniform(total, cfg.kv_width(), seed + 2);
        // Queries positioned after all keys so everything is visible.
        let qo = total;
        let parts: Vec<_> = (0..3)
            .map(|c| partial(&q, &k.rows_slice(c * lc, lc), &v.rows_slice(c * lc, lc), cfg, qo, c * lc))
            .collect();
        let ab_c = merge_partials(&merge_partials(&parts[0], &parts[1], cfg), &parts[2], cfg);
        let a_bc = merge_partials(&parts[0], &merge_partials(&parts[1], &parts[2], cfg), cfg);
        let ba_c = merge_partials(&merge_partials(&parts[1], &parts[0], cfg), &parts[2], cfg);
        prop_assert!(ab_c.o.max_abs_diff(&a_bc.o) < 1e-4);
        prop_assert!(ab_c.o.max_abs_diff(&ba_c.o) < 1e-4);
        // And the 3-way merge equals the monolithic partial.
        let mono = partial(&q, &k, &v, cfg, qo, 0);
        prop_assert!(ab_c.o.max_abs_diff(&mono.o) < 1e-4);
    }

    /// dQ/dK/dV from any chunking sum to the monolithic gradients.
    #[test]
    fn attention_backward_split_invariance(
        chunks in 2usize..5,
        chunk_len in 1usize..4,
        seed in 0u64..300,
    ) {
        let cfg = HeadCfg::new(2, 1, 4);
        let s = chunks * chunk_len;
        let q = seeded_uniform(s, cfg.q_width(), seed);
        let k = seeded_uniform(s, cfg.kv_width(), seed + 1);
        let v = seeded_uniform(s, cfg.kv_width(), seed + 2);
        let d_o = seeded_uniform(s, cfg.q_width(), seed + 3);
        let full = forward_full(&q, &k, &v, cfg);
        let (dq_ref, dkv_ref) =
            backward_chunked(&q, &[(&k, &v)], &[0], &d_o, &full.o, &full.lse, cfg, 0);
        let ks: Vec<Tensor> = (0..chunks).map(|c| k.rows_slice(c * chunk_len, chunk_len)).collect();
        let vs: Vec<Tensor> = (0..chunks).map(|c| v.rows_slice(c * chunk_len, chunk_len)).collect();
        let ch: Vec<(&Tensor, &Tensor)> = ks.iter().zip(vs.iter()).collect();
        let offs: Vec<usize> = (0..chunks).map(|c| c * chunk_len).collect();
        let fwd = forward_chunked(&q, &ch, &offs, cfg, 0);
        let (dq, dkv) = backward_chunked(&q, &ch, &offs, &d_o, &fwd.o, &fwd.lse, cfg, 0);
        prop_assert!(dq.max_abs_diff(&dq_ref) < 1e-3);
        let mut dk_cat = Tensor::zeros(s, cfg.kv_width());
        for (c, (dk, _)) in dkv.iter().enumerate() {
            dk_cat.set_rows(c * chunk_len, dk);
        }
        prop_assert!(dk_cat.max_abs_diff(&dkv_ref[0].0) < 1e-3);
    }

    /// Fused prologue/epilogue GEMMs ≡ the separate-pass composition,
    /// **bit-for-bit**, for arbitrary shapes, across worker-pool widths
    /// and both micro-kernel widths — the invariant the fused layer hot
    /// loop rests on. Covers: RMSNorm prologue (row and transposed
    /// orientations), SwiGLU prologue, residual-add epilogue, and the
    /// gradient-accumulation entry (`C += AᵀB`).
    #[test]
    fn fused_gemm_equals_separate_passes_bitwise(
        m in 1usize..70,
        k in 1usize..96,
        n in 1usize..70,
        seed in 0u64..500,
        nr_sel in 0usize..2,
        threads_sel in 0usize..2,
    ) {
        let nr = [8usize, 16][nr_sel];
        let threads = [1usize, 4][threads_sel];
        with_kernel_nr(nr, || rayon::with_num_threads(threads, || {
            let x = seeded_uniform(m, k, seed);
            let w = seeded_uniform(k, n, seed + 1);
            let gain: Vec<f32> = (0..k).map(|i| 0.8 + 0.01 * i as f32).collect();
            let pw = PackedWeight::new(w.clone());

            // RMSNorm prologue ≡ materialised rmsnorm + plain matmul.
            let inv = rmsnorm::inv_rms(&x);
            let fused = matmul_fused(
                &x,
                pw.nn(),
                Prologue::NormRows { inv: &inv, gain: &gain },
                Epilogue::None,
            );
            let normed = rmsnorm::forward(&x, &gain);
            let unfused = matmul(&normed, &w);
            assert_eq!(fused, unfused, "norm prologue ({m},{k},{n}) nr={nr} t={threads}");
            fused.recycle();

            // SwiGLU prologue + residual epilogue ≡ swiglu + matmul + add.
            let gate = seeded_uniform(m, k, seed + 2);
            let up = seeded_uniform(m, k, seed + 3);
            let resid = seeded_uniform(m, n, seed + 4);
            let fused = matmul_fused(
                &gate,
                pw.nn(),
                Prologue::SwigluRows { up: &up },
                Epilogue::Add(&resid),
            );
            let act = swiglu::forward(&gate, &up);
            let mut unfused = matmul(&act, &w);
            act.recycle();
            unfused.add_assign(&resid);
            assert_eq!(fused, unfused, "swiglu+add ({m},{k},{n}) nr={nr} t={threads}");
            fused.recycle();

            // Transposed-norm prologue on the accumulate entry ≡
            // rmsnorm + matmul_tn + add_assign — the dW shape: A is the
            // (tokens, features) activation whose transpose feeds the
            // GEMM, so `inv` rides the k index and `gain` the output row.
            let dy = seeded_uniform(m, n, seed + 5);
            let mut g_fused = seeded_uniform(k, n, seed + 6);
            let mut g_unfused = g_fused.clone();
            matmul_tn_acc(
                &mut g_fused,
                &x,
                &dy,
                Prologue::NormCols { inv: &inv, gain: &gain },
                Prologue::None,
            );
            g_unfused.add_assign(&matmul_tn(&normed, &dy));
            assert_eq!(g_fused, g_unfused, "tn_acc norm ({m},{k},{n}) nr={nr} t={threads}");

            normed.recycle();
            pool::recycle(inv);
        }));
    }

    /// Fused SwiGLU-backward prologues ≡ the separate-pass composition,
    /// bit for bit, across NR widths and thread counts. `swiglu::backward`
    /// is finite-difference anchored in its own unit tests, so bitwise
    /// equality here transitively anchors the fused path: the
    /// `DSwigluGateRows`/`DSwigluUpRows` maps reproduce its exact
    /// elementwise expressions, hence identical packs, hence identical
    /// GEMM bits — with no `d_gate`/`d_up` tensor ever materialised.
    #[test]
    fn fused_swiglu_backward_equals_separate_passes_bitwise(
        m in 1usize..70,
        f in 1usize..96,
        n in 1usize..70,
        seed in 0u64..500,
        nr_sel in 0usize..2,
        threads_sel in 0usize..2,
    ) {
        let nr = [8usize, 16][nr_sel];
        let threads = [1usize, 4][threads_sel];
        with_kernel_nr(nr, || rayon::with_num_threads(threads, || {
            let gate = seeded_uniform(m, f, seed);
            let up = seeded_uniform(m, f, seed + 1);
            let d_act = seeded_uniform(m, f, seed + 2);
            let (d_gate, d_up) = swiglu::backward(&gate, &up, &d_act);
            let pro_dg = Prologue::DSwigluGateRows { gate: &gate, up: &up };
            let pro_du = Prologue::DSwigluUpRows { gate: &gate };

            // dX side (A-operand maps on the fused/accumulate entries):
            // d_normed = d_gate·Wᵍᵀ + d_up·Wᵘᵀ without the intermediates.
            let wt = seeded_uniform(f, n, seed + 3);
            let pw = PackedWeight::new(wt.clone());
            let mut fused = matmul_fused(&d_act, pw.nn(), pro_dg, Epilogue::None);
            let mut unfused = matmul(&d_gate, &wt);
            assert_eq!(fused, unfused, "d_gate map ({m},{f},{n}) nr={nr} t={threads}");
            matmul_fused_acc(&mut fused, &d_act, pw.nn(), pro_du);
            unfused.add_assign(&matmul(&d_up, &wt));
            assert_eq!(fused, unfused, "d_up acc ({m},{f},{n}) nr={nr} t={threads}");
            fused.recycle();
            unfused.recycle();

            // dW side (B-operand map on the transposed-accumulate entry),
            // composed with the NormCols A-map exactly like the layer:
            // g.w_gate += normed(x)ᵀ · d_gate.
            let x = seeded_uniform(m, n, seed + 4);
            let gain: Vec<f32> = (0..n).map(|i| 0.9 + 0.01 * i as f32).collect();
            let inv = rmsnorm::inv_rms(&x);
            let pro_n = Prologue::NormCols { inv: &inv, gain: &gain };
            let mut gw_fused = seeded_uniform(n, f, seed + 5);
            let mut gw_unfused = gw_fused.clone();
            matmul_tn_acc(&mut gw_fused, &x, &d_act, pro_n, pro_dg);
            let normed = rmsnorm::forward(&x, &gain);
            gw_unfused.add_assign(&matmul_tn(&normed, &d_gate));
            assert_eq!(gw_fused, gw_unfused, "dW gate ({m},{f},{n}) nr={nr} t={threads}");
            let mut gw_fused_u = seeded_uniform(n, f, seed + 6);
            let mut gw_unfused_u = gw_fused_u.clone();
            matmul_tn_acc(&mut gw_fused_u, &x, &d_act, pro_n, pro_du);
            gw_unfused_u.add_assign(&matmul_tn(&normed, &d_up));
            assert_eq!(gw_fused_u, gw_unfused_u, "dW up ({m},{f},{n}) nr={nr} t={threads}");

            normed.recycle();
            pool::recycle(inv);
            d_gate.recycle();
            d_up.recycle();
        }));
    }

    /// Sharded cross-entropy equals monolithic for any divisor sharding.
    #[test]
    fn sharded_ce_matches_monolithic(
        rows in 1usize..8,
        vocab_mult in 1usize..6,
        shards in 1usize..5,
        seed in 0u64..500,
    ) {
        let vocab = vocab_mult * 12; // divisible by 1..4
        prop_assume!(vocab % shards == 0);
        let logits = seeded_uniform(rows, vocab, seed);
        let targets = seeded_tokens(rows, vocab, seed + 1);
        let (ref_loss, _) = forward_backward(&logits, &targets);
        let w = vocab / shards;
        let stats: Vec<_> = (0..shards)
            .map(|s| shard_stats(&logits.cols_slice(s * w, w), &targets, s * w))
            .collect();
        let loss = loss_from_stats(&combine_stats(&stats));
        prop_assert!((loss - ref_loss).abs() < 1e-3);
    }
}
