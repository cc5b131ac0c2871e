//! Cross-tier equivalence for the runtime SIMD dispatch layer
//! (`bcpnn_tensor::simd::dispatch`), in the spirit of
//! `into_equivalence.rs`: every kernel returns the same bits on every
//! dispatch tier, for every input — finite, NaN, ±inf, or deep enough below
//! the group maximum to underflow. The lane tier is the portable oracle; it
//! is checked on its own against plain loops and an `f64` softmax.
//! On top of the kernel checks, one seeded pipeline fitted on each tier
//! must write the same model bytes and predict the same probabilities.
//!
//! Everything runs inside a single `#[test]` because the later phases force
//! the process-wide tier with `set_tier`; separate tests would race each
//! other's global state under the parallel test runner.

use bcpnn_backend::{Backend, BackendKind, NaiveBackend, ParallelBackend};
use bcpnn_core::{Network, Pipeline, Predictor, ReadoutKind, TrainingParams};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_tensor::simd::dispatch::{self, SimdTier};
use bcpnn_tensor::simd::exp::EXP_LO;
use bcpnn_tensor::{gemm, gemm_blocked, gemm_naive, reduce, vector, Matrix, MatrixRng};

const TIERS: [SimdTier; 2] = [SimdTier::Lanes, SimdTier::Avx2];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Ragged lengths crossing the 8-lane boundary every way that matters.
const LENS: [usize; 7] = [0, 1, 7, 8, 9, 33, 250];

fn elementwise_kernels_are_bit_exact_across_tiers(rng: &mut MatrixRng) {
    for len in LENS {
        let base: Vec<f32> = rng.uniform(1, len.max(1), -2.0, 2.0).into_vec()[..len].to_vec();
        let x: Vec<f32> = rng.uniform(1, len.max(1), -2.0, 2.0).into_vec()[..len].to_vec();
        let codes_i8: Vec<i8> = rng.uniform::<f32>(1, len.max(1), -127.0, 127.0).into_vec()[..len]
            .iter()
            .map(|&v| v as i8)
            .collect();
        let a = 0.37f32;

        let mut want_i8acc = base.clone();
        for (d, &c) in want_i8acc.iter_mut().zip(&codes_i8) {
            *d += f32::from(c);
        }
        let mut want_i8axpy = base.clone();
        for (d, &c) in want_i8axpy.iter_mut().zip(&codes_i8) {
            *d += a * f32::from(c);
        }
        let want_argmax = vector::argmax(&x);

        for tier in TIERS {
            let mut got = base.clone();
            dispatch::accumulate_i8_with(tier, &mut got, &codes_i8);
            assert_eq!(
                bits(&got),
                bits(&want_i8acc),
                "accumulate_i8 {tier:?} len {len}"
            );

            let mut got = base.clone();
            dispatch::axpy_i8_with(tier, &mut got, a, &codes_i8);
            assert_eq!(bits(&got), bits(&want_i8axpy), "axpy_i8 {tier:?} len {len}");

            assert_eq!(
                dispatch::argmax_with(tier, &x),
                want_argmax,
                "argmax {tier:?} len {len}"
            );
        }
    }

    // argmax edge semantics: first-max ties and NaNs, on every tier.
    let with_nan = [0.0, f32::NAN, 2.0, 1.0, 0.5, 0.25, 0.1, 0.0, -1.0];
    let ties = [1.0, 3.0, 3.0, 2.0, 3.0, 0.0, 0.0, 0.0, 3.0];
    for tier in TIERS {
        assert_eq!(dispatch::argmax_with(tier, &with_nan), 2, "NaN {tier:?}");
        assert_eq!(dispatch::argmax_with(tier, &ties), 1, "ties {tier:?}");
        assert_eq!(dispatch::argmax_with(tier, &[]), 0, "empty {tier:?}");
    }
}

fn matrix_kernels_are_bit_exact_across_tiers(rng: &mut MatrixRng) {
    for (rows, cols) in [(0, 5), (1, 1), (4, 7), (5, 8), (6, 19), (9, 64)] {
        let m: Matrix<f32> = rng.uniform(rows, cols, -3.0, 3.0);
        let mut want_idx = Vec::new();
        reduce::row_argmax_into(&m, &mut want_idx);
        for tier in TIERS {
            let mut idx = Vec::new();
            dispatch::row_argmax_into_with(tier, &m, &mut idx);
            assert_eq!(idx, want_idx, "row_argmax {tier:?} {rows}x{cols}");
        }
    }
}

/// The lane tier's softmax must stay within 2e-6 (probabilities live in
/// [0, 1], so absolute difference) of an `f64` softmax, and every group
/// must still normalise closely enough to serve.
fn lane_softmax_matches_f64_reference(rng: &mut MatrixRng) {
    for (rows, group, groups) in [(1, 1, 4), (5, 4, 3), (9, 32, 4), (3, 7, 2)] {
        let m: Matrix<f32> = rng.normal(rows, group * groups, 0.0, 3.0);
        let mut got = m.clone();
        dispatch::softmax_groups_into_with(SimdTier::Lanes, &mut got, group);
        for r in 0..m.rows() {
            for (seg, out) in m.row(r).chunks(group).zip(got.row(r).chunks(group)) {
                let max = seg.iter().map(|&v| f64::from(v)).fold(f64::MIN, f64::max);
                let total: f64 = seg.iter().map(|&v| (f64::from(v) - max).exp()).sum();
                for (&v, &o) in seg.iter().zip(out) {
                    let want = (f64::from(v) - max).exp() / total;
                    let diff = (f64::from(o) - want).abs();
                    assert!(
                        diff <= 2e-6,
                        "lane softmax drifted {diff} from f64 ({rows}x{group}x{groups})"
                    );
                }
                let s: f32 = out.iter().sum();
                assert!((s - 1.0).abs() < 1e-5, "group sum {s}");
            }
        }
    }
}

/// Softmax one `len`-wide segment on every tier and require one set of bits.
fn assert_softmax_tiers_agree(seg: &[f32], what: &str) {
    let m = Matrix::from_vec(1, seg.len(), seg.to_vec());
    let mut want = m.clone();
    dispatch::softmax_groups_into_with(SimdTier::Lanes, &mut want, seg.len());
    for tier in TIERS {
        let mut got = m.clone();
        dispatch::softmax_groups_into_with(tier, &mut got, seg.len());
        assert_eq!(
            bits(got.as_slice()),
            bits(want.as_slice()),
            "softmax {tier:?} vs lanes on {what}: {seg:?}"
        );
    }
}

/// Every tier's softmax is the lane tier's to the bit: on random groups of
/// every shape, on groups holding a NaN or ±inf in the 8-lane body or in
/// the tail, and on groups whose supports sit more than 87 below the
/// maximum (the `EXP_LO` clamp, subnormal outputs).
fn softmax_is_bit_exact_across_tiers(rng: &mut MatrixRng) {
    for (rows, group, groups) in [(1, 1, 4), (5, 4, 3), (9, 32, 4), (3, 7, 2), (4, 17, 3)] {
        for sd in [3.0, 40.0] {
            let m: Matrix<f32> = rng.normal(rows, group * groups, 0.0, sd);
            let mut want = m.clone();
            dispatch::softmax_groups_into_with(SimdTier::Lanes, &mut want, group);
            for tier in TIERS {
                let mut got = m.clone();
                dispatch::softmax_groups_into_with(tier, &mut got, group);
                assert_eq!(
                    bits(got.as_slice()),
                    bits(want.as_slice()),
                    "softmax {tier:?} ({rows}x{group}x{groups}, sd {sd})"
                );
            }
        }
    }

    for len in [1usize, 7, 8, 9, 16, 17] {
        let base: Vec<f32> = rng.normal(1, len, 0.0, 2.0).into_vec();
        for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // Index 0 is a body lane once len >= 8; len - 1 is a tail lane
            // unless len is a multiple of 8.
            for at in [0, len / 2, len - 1] {
                let mut seg = base.clone();
                seg[at] = special;
                assert_softmax_tiers_agree(&seg, &format!("{special} at {at} of {len}"));
            }
        }
        let mut all = vec![f32::NEG_INFINITY; len];
        assert_softmax_tiers_agree(&all, "all -inf");
        all.fill(f32::INFINITY);
        assert_softmax_tiers_agree(&all, "all +inf");
    }

    // Supports far below the maximum: exp clamps at EXP_LO ≈ -87.34 and the
    // outputs near it are subnormal.
    let deep = [
        0.0, -86.0, -87.0, -87.3, -87.4, -88.0, -90.0, -100.0, -200.0, -1e30, EXP_LO, -50.0,
        -103.0, -120.0, -3.0, -87.2, -1.0,
    ];
    for len in [1usize, 7, 8, 9, 16, 17] {
        assert_softmax_tiers_agree(&deep[..len], "deep supports");
        let shifted: Vec<f32> = deep[..len].iter().map(|v| v + 5.0).collect();
        assert_softmax_tiers_agree(&shifted, "deep supports, shifted");
    }
    let mut out = Matrix::from_vec(1, deep.len(), deep.to_vec());
    dispatch::softmax_groups_into_with(SimdTier::Lanes, &mut out, deep.len());
    assert!(
        out.as_slice().iter().any(|v| v.is_subnormal()),
        "the deep supports must reach subnormal outputs: {out:?}"
    );
}

/// The 2-wide groups of `softmax_groups_into_with` (the 2-class readout)
/// take a straight-line kernel of their own; it must give the generic
/// per-segment kernel's bits on every tier, over every pair drawn from
/// ±0, NaN, ±inf, subnormals, ties, values past the `EXP_LO` clamp and
/// ordinary ones.
fn pair_softmax_is_the_generic_kernel(rng: &mut MatrixRng) {
    let mut specials: Vec<f32> = vec![
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE / 4.0,
        -f32::MIN_POSITIVE / 4.0,
        f32::MIN_POSITIVE,
        1.0,
        -1.0,
        EXP_LO,
        -100.0,
        88.0,
        f32::MAX,
        f32::MIN,
    ];
    let drawn: Matrix<f32> = rng.normal(1, 8, 0.0, 5.0);
    specials.extend(drawn.into_vec());
    let pairs: Vec<f32> = specials
        .iter()
        .flat_map(|&a| specials.iter().flat_map(move |&b| [a, b]))
        .collect();
    for tier in TIERS {
        let mut got = Matrix::from_vec(pairs.len() / 2, 2, pairs.clone());
        dispatch::softmax_groups_into_with(tier, &mut got, 2);
        for (pair, want) in pairs.chunks_exact(2).zip(got.as_slice().chunks_exact(2)) {
            let mut generic = pair.to_vec();
            dispatch::softmax_seg(tier, &mut generic);
            assert_eq!(
                bits(want),
                bits(&generic),
                "2-wide softmax {tier:?} on {pair:?}"
            );
        }
    }
}

/// Values a weight, a bias or an activation may hold that a plain sum or
/// product treats specially: signed zeros, NaN, infinities, subnormals.
const SPECIALS: [f32; 8] = [
    0.0,
    -0.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1e-40,
    -1e-45,
    f32::MIN_POSITIVE,
];

/// `rows x cols` normals with a special value at every `every`-th element
/// (none for `every == 0`).
fn sprinkled(rng: &mut MatrixRng, rows: usize, cols: usize, every: usize) -> Vec<f32> {
    let mut v = rng.normal(rows.max(1), cols.max(1), 0.0, 1.0).into_vec();
    v.truncate(rows * cols);
    if every > 0 {
        for (i, x) in v.iter_mut().step_by(every).enumerate() {
            *x = SPECIALS[i % SPECIALS.len()];
        }
    }
    v
}

/// The gather's definition, one element at a time:
/// `((s + src[o₁ + j]) + … + src[oₙ + j]) + bias[j]`.
fn sum_rows_reference(
    src: &[f32],
    offsets: &[usize],
    carry: bool,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    for (j, o) in out.iter_mut().enumerate() {
        let mut v = if carry { *o } else { 0.0 };
        for &off in offsets {
            v += src[off + j];
        }
        if let Some(b) = bias {
            v += b[j];
        }
        *o = v;
    }
}

/// The hot-column gather kernel writes its definition's bits on every tier:
/// segments of every width around the 8- and 32-column blocks, no hot row,
/// one, or all of them in field, weights and bias holding signed zeros,
/// NaN and ±inf (NaN bits as [`assert_bits_or_nan`] says). A list split over two calls (the second carrying the
/// partial sum through `out`) gives the one-call bits.
fn sum_rows_is_bit_exact_across_tiers(rng: &mut MatrixRng) {
    const ROWS: usize = 24;
    for width in [1usize, 7, 8, 31, 32, 33, 1000] {
        // Rows `width + 3` apart, read from column 2 on: the offsets are
        // neither row starts nor aligned.
        let stride = width + 3;
        let src = sprinkled(rng, ROWS, stride, 11);
        let bias = sprinkled(rng, 1, width, 5);
        let all: Vec<usize> = (0..ROWS).map(|r| r * stride + 2).collect();
        let seed_out = sprinkled(rng, 1, width, 3);
        for offsets in [&all[..0], &all[7..8], &all[..]] {
            for (carry, with_bias) in [(false, true), (false, false), (true, true)] {
                let bias = with_bias.then_some(&bias[..]);
                let mut want = seed_out.clone();
                sum_rows_reference(&src, offsets, carry, bias, &mut want);
                for tier in TIERS {
                    let mut got = seed_out.clone();
                    dispatch::sum_rows_with(tier, &src, offsets, carry, bias, &mut got);
                    let what = format!(
                        "sum_rows {tier:?} width {width}, {} rows, carry {carry}, bias {with_bias}",
                        offsets.len()
                    );
                    assert_bits_or_nan(&got, &want, &what);
                }
            }
        }
        let (head, tail) = all.split_at(ROWS / 2 + 1);
        let mut want = seed_out.clone();
        sum_rows_reference(&src, &all, false, Some(&bias), &mut want);
        for tier in TIERS {
            let mut got = seed_out.clone();
            dispatch::sum_rows_with(tier, &src, head, false, None, &mut got);
            dispatch::sum_rows_with(tier, &src, tail, true, Some(&bias), &mut got);
            assert_bits_or_nan(
                &got,
                &want,
                &format!("split sum_rows {tier:?} width {width}"),
            );
        }
    }
}

/// `got` is `want` to the bit wherever `want` is a number; where `want` is
/// NaN, `got` must be NaN too. Which NaN an add of two NaNs returns is the
/// first operand's on x86, and LLVM, for which that choice is unspecified,
/// orders a commutative add's operands by register allocation: the AVX2
/// readout's one- and two-class loops put the sum first in one and the
/// product first in the other. So NaN signs and payloads are not part of
/// any kernel's contract, and every other bit is.
fn assert_bits_or_nan(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: lengths differ");
    for (n, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {n} is {g} ({:#x}), want {w} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// The narrow-output GEMM (the readout: `C` two columns wide, eight rows to
/// a register on AVX2) writes `gemm_naive`'s bits on every tier (NaN bits
/// as [`assert_bits_or_nan`] says), through the single-threaded and the
/// row-banded parallel driver. Row counts
/// around the 8-row block, `k` of 0, 1 and 1000, alpha of 1, 0.5, 0 and -1,
/// beta of 0 and 1 over C seeded with `-0.0` and NaN, and A holding signed
/// zeros, NaN, ±inf and subnormals. Column 0 of A is zero in every row and
/// row 0 of B is NaN, so the zero skip is what keeps most outputs finite.
fn narrow_gemm_is_bit_exact_across_tiers(rng: &mut MatrixRng) {
    const N: usize = 2;
    let prev = dispatch::active_tier();
    for rows in [0usize, 1, 7, 8, 9, 17, 256] {
        for k in [0usize, 1, 1000] {
            // Every third row meets NaN and ±inf, the others only signed
            // zeros and subnormals.
            let mut a = sprinkled(rng, rows, k, 0);
            for (i, row) in a.chunks_mut(k.max(1)).enumerate() {
                let specials: &[f32] = if i % 3 == 0 {
                    &SPECIALS
                } else {
                    &[0.0, -0.0, 1e-40, -1e-45]
                };
                for (p, x) in row.iter_mut().enumerate() {
                    if p == 0 {
                        *x = if i % 2 == 0 { 0.0 } else { -0.0 };
                    } else if (p + i) % 7 == 0 {
                        *x = specials[(p / 7 + i) % specials.len()];
                    }
                }
            }
            let a = Matrix::from_vec(rows, k, a);
            let mut b = sprinkled(rng, k, N, 0);
            if k > 0 {
                b[..N].fill(f32::NAN);
            }
            let b = Matrix::from_vec(k, N, b);
            let seed = Matrix::from_fn(rows, N, |i, j| match (i + j) % 3 {
                0 => -0.0,
                1 => f32::NAN,
                _ => 0.25,
            });
            for alpha in [1.0f32, 0.5, 0.0, -1.0] {
                for beta in [0.0f32, 1.0] {
                    let what = format!("{rows} x {k}, alpha {alpha}, beta {beta}");
                    let mut want = seed.clone();
                    gemm_naive(alpha, &a, &b, beta, &mut want);
                    for tier in TIERS {
                        let installed = dispatch::set_tier(tier);
                        let mut got = seed.clone();
                        gemm_blocked(alpha, &a, &b, beta, &mut got);
                        let mut par = seed.clone();
                        gemm(alpha, &a, &b, beta, &mut par);
                        for (driver, got) in [("blocked", got), ("parallel", par)] {
                            assert_bits_or_nan(
                                got.as_slice(),
                                want.as_slice(),
                                &format!("{driver} narrow gemm on {installed:?}: {what}"),
                            );
                        }
                    }
                }
            }
        }
    }
    dispatch::set_tier(prev);
}

/// Naive and parallel backends must stay bit-identical on *every* forced
/// tier — they share the per-segment softmax kernel. So must the row-parallel
/// softmax and the sequential one on both sides of the pool cutoff:
/// readout-shaped (2-column) batches stay on the calling thread,
/// hidden-shaped (1000-column) ones of 64 and 256 rows go to the pool.
fn backends_agree_per_tier(rng: &mut MatrixRng) {
    let prev = dispatch::active_tier();
    for tier in TIERS {
        let installed = dispatch::set_tier(tier);
        let m: Matrix<f32> = rng.normal(6, 24, 0.0, 2.0);
        let mut a = m.clone();
        let mut b = m;
        NaiveBackend::new().grouped_softmax(&mut a, 4);
        ParallelBackend::new().grouped_softmax(&mut b, 4);
        assert_eq!(
            bits(a.as_slice()),
            bits(b.as_slice()),
            "naive vs parallel on {installed:?}"
        );
        for (rows, cols) in [(1, 2), (64, 2), (256, 2), (64, 1000), (256, 1000)] {
            let m: Matrix<f32> = rng.normal(rows, cols, 0.0, 3.0);
            let mut seq = m.clone();
            let mut par = m;
            dispatch::softmax_groups_into(&mut seq, cols);
            dispatch::softmax_row_groups_par(&mut par, cols);
            assert_eq!(
                bits(par.as_slice()),
                bits(seq.as_slice()),
                "row-parallel vs sequential softmax {rows}x{cols} on {installed:?}"
            );
        }
    }
    dispatch::set_tier(prev);
}

/// End-to-end: the same seeded pipeline, fitted once per tier, must write
/// the same `model.bcpnn` bytes and predict the same probabilities to the
/// bit.
fn end_to_end_fit_is_bit_identical_across_tiers() {
    let prev = dispatch::active_tier();
    let data = generate(&SyntheticHiggsConfig {
        n_samples: 400,
        seed: 42,
        ..Default::default()
    });
    let root = std::env::temp_dir().join(format!("bcpnn-simd-tiers-{}", std::process::id()));
    let mut fitted: Vec<(SimdTier, Vec<u8>, Vec<u32>)> = Vec::new();
    for tier in TIERS {
        let installed = dispatch::set_tier(tier);
        let (pipeline, _) = Pipeline::fit(
            &data,
            10,
            Network::builder()
                .hidden(2, 8, 0.4)
                .classes(2)
                .readout(ReadoutKind::Hybrid)
                .backend(BackendKind::Naive)
                .seed(42),
            TrainingParams {
                unsupervised_epochs: 1,
                supervised_epochs: 2,
                batch_size: 64,
                ..Default::default()
            },
        )
        .unwrap();
        let dir = root.join(installed.as_str());
        pipeline.save(&dir).unwrap();
        let bytes = std::fs::read(dir.join("model.bcpnn")).unwrap();
        let proba = pipeline.predict_proba(&data.features).unwrap();
        fitted.push((installed, bytes, bits(proba.as_slice())));
    }
    std::fs::remove_dir_all(&root).unwrap();
    dispatch::set_tier(prev);

    let (_, want_bytes, want_proba) = &fitted[0];
    for (installed, bytes, proba) in &fitted[1..] {
        assert!(
            bytes == want_bytes,
            "{installed:?} fit wrote different model bytes than lanes"
        );
        assert!(
            proba == want_proba,
            "{installed:?} probabilities differ from lanes"
        );
    }
}

#[test]
fn every_dispatch_tier_is_bit_identical() {
    // On machines without AVX2 the Avx2 requests degrade to Lanes — the
    // assertions then compare Lanes against itself, which keeps this test
    // meaningful-and-green on any x86 and on non-x86 targets alike.
    let mut rng = MatrixRng::seed_from(77);
    elementwise_kernels_are_bit_exact_across_tiers(&mut rng);
    matrix_kernels_are_bit_exact_across_tiers(&mut rng);
    lane_softmax_matches_f64_reference(&mut rng);
    softmax_is_bit_exact_across_tiers(&mut rng);
    pair_softmax_is_the_generic_kernel(&mut rng);
    sum_rows_is_bit_exact_across_tiers(&mut rng);
    narrow_gemm_is_bit_exact_across_tiers(&mut rng);
    backends_agree_per_tier(&mut rng);
    end_to_end_fit_is_bit_identical_across_tiers();
}
