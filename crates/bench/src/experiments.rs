//! The paper's experiments as functions, and the claims table they fill.
//!
//! One function per experiment ([`headline`], [`baselines`], [`fig2`],
//! [`fig3`], [`fig4`], [`fig5`], [`search`]) takes a [`Size`] and returns an
//! [`Experiment`]: its set-up, its wall time, the tables behind it and its
//! [`Claim`]s. A claim is one sentence of the paper next to our numbers and
//! a `yes`/`no` verdict; the verdict is computed by a predicate that is the
//! paper's sentence with the loose factors `tests/experiment_shapes.rs` has
//! always used, and a predicate is never loosened to turn a `no` into a
//! `yes`. The `reproduce` binary runs [`run_all`] at [`Size::Ledger`] and
//! prints [`render_ledger`] — that output is the committed
//! `EXPERIMENTS.md`; `tests/experiment_shapes.rs` calls the same functions
//! at [`Size::Quick`], so the test, the document and the code share one set
//! of set-ups.

use std::collections::HashSet;
use std::time::Instant;

use bcpnn_core::baseline::{MlpClassifier, MlpParams};
use bcpnn_core::{EvalReport, SgdClassifier, SgdParams, TrainingObserver, TrainingPhase};
use bcpnn_data::encode::Standardizer;
use bcpnn_data::higgs::{noise_feature_indices, FEATURE_NAMES};
use bcpnn_tensor::simd::dispatch;
use bcpnn_tensor::stats::mean;

use crate::ascii::{render_feature_mask, sparkline};
use crate::insitu::MaskHistory;
use crate::search::{bcpnn_higgs_space, EvolutionConfig, EvolutionSearch, ParamSet, RandomSearch};
use crate::table::{mean_std, pct, pct_mean_std, pct_spread, spread, table};
use crate::{
    build_network, build_trainer, prepare_higgs, run_bcpnn, run_repeated, Aggregate,
    BcpnnRunConfig, HiggsDataConfig, HiggsExperimentData, RunOutcome,
};

/// How large the experiments run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Miniature set-ups (seconds each in the debug profile): what
    /// `tests/experiment_shapes.rs` asserts on.
    Quick,
    /// The set-ups of the committed `EXPERIMENTS.md` (minutes in release):
    /// what the `reproduce` binary runs.
    Ledger,
}

/// One sentence of the paper, our measurement of it, and the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Stable identifier, `<experiment>.<claim>` (an entry of [`claim_ids`]).
    pub id: &'static str,
    /// The paper's sentence and value.
    pub paper: &'static str,
    /// Our value: mean ± sample standard deviation over the experiment's
    /// repetitions.
    pub ours: String,
    /// Whether the paper's sentence holds for `ours`.
    pub holds: bool,
}

/// One experiment's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Short name; the prefix of its claims' ids.
    pub name: &'static str,
    /// Rows, topology, epochs: everything needed to read the numbers.
    pub setup: String,
    /// The seeds of the repetitions (`2021–2025`).
    pub seeds: String,
    /// Repetitions behind every mean ± std.
    pub repetitions: usize,
    /// The claims, in [`claim_ids`] order.
    pub claims: Vec<Claim>,
    /// Markdown tables (and terminal figures) behind the claims.
    pub detail: String,
    /// Wall time of the whole experiment, data preparation included.
    pub wall_s: f64,
}

impl Experiment {
    fn new(name: &'static str, setup: String, seed: u64, repetitions: usize) -> Self {
        let seeds = match repetitions {
            0 | 1 => seed.to_string(),
            n => format!("{seed}–{}", seed + n as u64 - 1),
        };
        Self {
            name,
            setup,
            seeds,
            repetitions,
            claims: Vec::new(),
            detail: String::new(),
            wall_s: 0.0,
        }
    }

    /// Record the claim `id`; its paper sentence comes from [`CLAIMS`].
    fn claim(&mut self, id: &str, ours: String, holds: bool) {
        let &(id, paper) = CLAIMS
            .iter()
            .find(|(known, _)| *known == id)
            .unwrap_or_else(|| panic!("claim {id:?} is not in the claims table"));
        self.claims.push(Claim {
            id,
            paper,
            ours,
            holds,
        });
    }

    fn finish(mut self, started: Instant, detail: String) -> Self {
        self.detail = detail;
        self.wall_s = started.elapsed().as_secs_f64();
        self
    }
}

/// Every claim the ledger carries: stable id, then the paper's sentence.
const CLAIMS: [(&str, &str); 13] = [
    (
        "headline.hybrid_accuracy",
        "the hybrid (BCPNN + SGD) head improves on the associative readout's accuracy: 68.58 % → 69.15 % at 1 HCU × 3000 MCU, 40 % field",
    ),
    (
        "headline.hybrid_auc",
        "the hybrid head does not lose AUC to the associative readout: 0.755 → 0.764",
    ),
    (
        "baselines.gradient_models_lead_on_auc",
        "gradient-trained classifiers stay ahead of both BCPNN heads on AUC: 0.755 / 0.764 against ≈ 0.816 for a shallow MLP (Baldi et al.)",
    ),
    (
        "fig2.fields_settle",
        "Fig. 2: receptive fields move most in the early epochs and settle as training goes on",
    ),
    (
        "fig3.capacity_in_one_hcu",
        "Fig. 3: accuracy grows with the MCUs of one HCU, with diminishing returns (30 → 300 gains ≈ 5 points, 300 → 3000 much less)",
    ),
    (
        "fig3.time_grows_with_size",
        "Fig. 3: training time grows with HCUs × MCUs",
    ),
    (
        "fig4.tiny_fields_near_chance",
        "Fig. 4: accuracy is near chance below ≈ 10 % density and clearly higher at 40 %",
    ),
    (
        "fig4.peak_near_40",
        "Fig. 4: accuracy peaks around 40 % density (68.58 %) with no gain beyond",
    ),
    (
        "fig4.time_flat_in_density",
        "Fig. 4: training time is nearly independent of the density: 111 s at 5 % → 132.9 s at 95 % (1.2 ×)",
    ),
    (
        "fig5.coverage_grows_with_budget",
        "Fig. 5: a larger receptive-field budget covers more of the input",
    ),
    (
        "fig5.masks_not_nested",
        "Fig. 5: the connections chosen at a small budget are not all kept at a larger one",
    ),
    (
        "fig5.noise_features_avoided",
        "Figs. 2, 5: structural plasticity moves the field off uninformative inputs",
    ),
    (
        "search.tuned_beats_default",
        "§IV: the use-case-dependent hyperparameters are found by search (Ax, Nevergrad), which beats an untuned configuration",
    ),
];

/// The ids of every claim, in ledger order. Training-free: the committed
/// `EXPERIMENTS.md` is checked against this list.
pub fn claim_ids() -> Vec<&'static str> {
    CLAIMS.iter().map(|(id, _)| *id).collect()
}

fn higgs(train_per_class: usize, test_per_class: usize) -> HiggsExperimentData {
    prepare_higgs(&HiggsDataConfig {
        train_per_class,
        test_per_class,
        ..Default::default()
    })
}

fn column<T>(runs: &[T], f: impl Fn(&T) -> f64) -> Vec<f64> {
    runs.iter().map(f).collect()
}

fn accuracy(a: &Aggregate) -> String {
    pct_mean_std(a.mean_accuracy, a.std_accuracy)
}

fn fit_time(a: &Aggregate) -> String {
    format!("{} s", mean_std(a.mean_time_s, a.std_time_s))
}

/// The entry of `sweep` whose density is nearest to the headline's 40 %.
fn nearest_to_40<T>(sweep: &[T], density: impl Fn(&T) -> f64) -> &T {
    sweep
        .iter()
        .min_by(|a, b| {
            (density(a) - 0.40)
                .abs()
                .total_cmp(&(density(b) - 0.40).abs())
        })
        .expect("non-empty sweep")
}

fn join<T: ToString>(values: &[T]) -> String {
    values
        .iter()
        .map(T::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

fn associative(outcome: &RunOutcome) -> &EvalReport {
    outcome
        .bcpnn
        .as_ref()
        .expect("hybrid runs train the associative head too")
}

/// **§V-A, §VII — associative readout against the hybrid head**, both read
/// from the same trained networks at the paper's best single-HCU
/// configuration (1 HCU × 3000 MCU, 40 % receptive field).
pub fn headline(size: Size) -> Experiment {
    let t0 = Instant::now();
    let (train, test, n_mcu, unsup, sup, reps, seed) = match size {
        // Enough supervised epochs that the SGD head is not under-fitted on
        // the reduced training set.
        Size::Quick => (1500, 750, 300, 3, 16, 3, 47),
        Size::Ledger => (4000, 2000, 3000, 4, 8, 5, 2021),
    };
    let setup = format!(
        "1 HCU × {n_mcu} MCU, 40 % field, {unsup} + {sup} epochs, {train} + {test} rows per class"
    );
    let mut e = Experiment::new("headline", setup, seed, reps);
    let data = higgs(train, test);
    let cfg = BcpnnRunConfig {
        n_mcu,
        receptive_field: 0.40,
        unsupervised_epochs: unsup,
        supervised_epochs: sup,
        ..Default::default()
    };
    let (runs, _) = run_repeated(&cfg, &data, reps, seed);
    let bcpnn_acc = column(&runs, |o| associative(o).accuracy);
    let bcpnn_auc = column(&runs, |o| associative(o).auc);
    let hybrid_acc = column(&runs, |o| o.primary.accuracy);
    let hybrid_auc = column(&runs, |o| o.primary.auc);
    let time = column(&runs, |o| o.train_time_s);

    let delta = (mean(&hybrid_acc) - mean(&bcpnn_acc)) * 100.0;
    let ahead = (0..reps).filter(|&r| hybrid_acc[r] > bcpnn_acc[r]).count();
    let (before, after) = (pct_spread(&bcpnn_acc), pct_spread(&hybrid_acc));
    e.claim(
        "headline.hybrid_accuracy",
        format!("{before} → {after} ({delta:+.2} points; hybrid ahead in {ahead} of {reps} seeds)"),
        mean(&hybrid_acc) > mean(&bcpnn_acc),
    );
    e.claim(
        "headline.hybrid_auc",
        format!("{} → {}", spread(&bcpnn_auc), spread(&hybrid_auc)),
        mean(&hybrid_auc) >= mean(&bcpnn_auc) - 0.01,
    );
    let rows: Vec<String> = (0..reps)
        .map(|r| {
            let (b, h) = (pct(bcpnn_acc[r]), pct(hybrid_acc[r]));
            let (b_auc, h_auc, fit) = (bcpnn_auc[r], hybrid_auc[r], time[r]);
            format!(
                "{} | {b} | {b_auc:.3} | {h} | {h_auc:.3} | {fit:.2}",
                seed + r as u64
            )
        })
        .collect();
    let header =
        "seed | associative accuracy | associative AUC | hybrid accuracy | hybrid AUC | fit s";
    let fit = spread(&time);
    e.finish(
        t0,
        format!(
            "{}\nFit time per repetition: {fit} s.\n",
            table(header, &rows)
        ),
    )
}

/// **§VI — BCPNN against conventional classifiers** on identical rows:
/// both BCPNN heads and a logistic regression on the one-hot quantile
/// encoding, and a one-hidden-layer backprop MLP on standardized raw
/// features.
pub fn baselines(size: Size) -> Experiment {
    let t0 = Instant::now();
    let (train, test, n_mcu, reps, seed) = match size {
        Size::Quick => (1500, 750, 100, 1, 53),
        Size::Ledger => (4000, 2000, 3000, 3, 2021),
    };
    const EPOCHS: usize = 15;
    const MODELS: [&str; 4] = [
        "BCPNN (associative readout) | one-hot quantiles (280)",
        "BCPNN + SGD (hybrid) | one-hot quantiles (280)",
        "Logistic regression (SGD) | one-hot quantiles (280)",
        "MLP (128 hidden units, backprop) | standardized raw features (28)",
    ];
    let setup = format!(
        "BCPNN 1 HCU × {n_mcu} MCU, 40 % field, 3 + 8 epochs; logistic and MLP {EPOCHS} epochs; {train} + {test} rows per class"
    );
    let mut e = Experiment::new("baselines", setup, seed, reps);
    let data = higgs(train, test);
    let cfg = BcpnnRunConfig {
        n_mcu,
        receptive_field: 0.40,
        ..Default::default()
    };
    let standardizer = Standardizer::fit(&data.raw_train);
    let z_train = standardizer.transform(&data.raw_train);
    let z_test = standardizer.transform(&data.raw_test);
    let (raw_y_train, raw_y_test) = (&data.raw_train.labels, &data.raw_test.labels);

    // Per model, one (report, fit seconds) per repetition.
    let mut runs: [Vec<(EvalReport, f64)>; 4] = Default::default();
    for rep_seed in seed..seed + reps as u64 {
        let outcome = run_bcpnn(&cfg, &data, rep_seed);
        runs[0].push((associative(&outcome).clone(), outcome.train_time_s));
        runs[1].push((outcome.primary, outcome.train_time_s));

        let t = Instant::now();
        let width = data.encoded_width();
        let mut logreg = SgdClassifier::new(width, 2, SgdParams::default(), rep_seed)
            .expect("valid logistic regression");
        logreg
            .fit(&data.x_train, &data.y_train, EPOCHS, 128, rep_seed ^ 0xa1)
            .expect("logistic regression training failed");
        let fit_s = t.elapsed().as_secs_f64();
        let proba = logreg
            .predict_proba(&data.x_test)
            .expect("prediction failed");
        runs[2].push((EvalReport::from_probabilities(&proba, &data.y_test), fit_s));

        let t = Instant::now();
        let mut mlp = MlpClassifier::new(z_train.cols(), 2, MlpParams::default(), rep_seed)
            .expect("valid MLP");
        mlp.fit(&z_train, raw_y_train, EPOCHS, 128, rep_seed ^ 0xa2)
            .expect("MLP training failed");
        let fit_s = t.elapsed().as_secs_f64();
        let proba = mlp.predict_proba(&z_test).expect("prediction failed");
        runs[3].push((EvalReport::from_probabilities(&proba, raw_y_test), fit_s));
    }

    let auc: Vec<Vec<f64>> = runs.iter().map(|m| column(m, |(r, _)| r.auc)).collect();
    let [bcpnn, hybrid, logistic, mlp] = [0, 1, 2, 3].map(|m| spread(&auc[m]));
    e.claim(
        "baselines.gradient_models_lead_on_auc",
        format!("associative {bcpnn} / hybrid {hybrid} against logistic {logistic} / MLP {mlp}"),
        mean(&auc[2]).max(mean(&auc[3])) >= mean(&auc[0]).max(mean(&auc[1])),
    );
    let rows: Vec<String> = (0..4)
        .map(|m| {
            let accuracy = pct_spread(&column(&runs[m], |(r, _)| r.accuracy));
            let fit = spread(&column(&runs[m], |(_, s)| *s));
            format!("{} | {accuracy} | {} | {fit}", MODELS[m], spread(&auc[m]))
        })
        .collect();
    e.finish(t0, table("model | input | accuracy | AUC | fit s", &rows))
}

/// **Fig. 2 — the receptive fields during training**: 4 HCUs at 40 %
/// density, watched through the in-situ observer hook
/// (`Trainer::fit_with_observers`) with an in-memory [`MaskHistory`].
pub fn fig2(size: Size) -> Experiment {
    let t0 = Instant::now();
    let (train, test, n_mcu, epochs, seed) = match size {
        Size::Quick => (1000, 500, 30, 10, 59),
        Size::Ledger => (3000, 1000, 300, 8, 2021),
    };
    let setup = format!(
        "4 HCU × {n_mcu} MCU, 40 % field, {epochs} + 3 epochs, {train} + {test} rows per class"
    );
    let mut e = Experiment::new("fig2", setup, seed, 1);
    let data = higgs(train, test);
    let cfg = BcpnnRunConfig {
        n_hcu: 4,
        n_mcu,
        receptive_field: 0.40,
        unsupervised_epochs: epochs,
        supervised_epochs: 3,
        ..Default::default()
    };
    let history = MaskHistory::new();
    let mut network = build_network(&cfg, data.encoded_width(), seed);
    let report = {
        let mut handle = &history;
        let observers: &mut [&mut dyn TrainingObserver] = &mut [&mut handle];
        build_trainer(&cfg, seed)
            .fit_with_observers(&mut network, &data.x_train, &data.y_train, observers)
            .expect("training failed")
    };
    let eval = network
        .evaluate(&data.x_test, &data.y_test)
        .expect("evaluation failed");
    let unsupervised: Vec<_> = report
        .epochs
        .iter()
        .filter(|e| e.phase == TrainingPhase::Unsupervised)
        .collect();
    let swaps: Vec<usize> = unsupervised
        .iter()
        .map(|e| e.plasticity_swaps.unwrap_or(0))
        .collect();
    let line = sparkline(&column(&swaps, |&s| s as f64));
    let moved = history.total_change_fraction() * 100.0;
    e.claim(
        "fig2.fields_settle",
        format!(
            "swaps per epoch {} {line}; {moved:.0} % of connections differ between the first and the last snapshot",
            join(&swaps)
        ),
        swaps[swaps.len() - 1] < swaps[0],
    );
    let rows: Vec<String> = unsupervised
        .iter()
        .zip(&swaps)
        .map(|(e, s)| format!("{} | {s} | {:.2}", e.epoch, e.duration.as_secs_f64()))
        .collect();
    let detail = format!(
        "{}\nTest accuracy after {} mask snapshots: {} (AUC {:.3}).\n",
        table("unsupervised epoch | plasticity swaps | epoch s", &rows),
        history.len(),
        pct(eval.accuracy),
        eval.auc
    );
    e.finish(t0, detail)
}

/// **Fig. 3 — network capacity against accuracy and training time**: HCUs
/// × MCUs per HCU at a 30 % receptive field.
pub fn fig3(size: Size) -> Experiment {
    let t0 = Instant::now();
    // On the synthetic data the capacity effect saturates earlier than in
    // the paper, so the miniature ladder starts at 3 MCU, where a
    // hypercolumn cannot represent the input structure at all.
    type Setup = (
        usize,
        usize,
        &'static [usize],
        [usize; 3],
        usize,
        usize,
        usize,
        u64,
    );
    let (train, test, hcus, mcus, unsup, sup, reps, seed): Setup = match size {
        Size::Quick => (1500, 750, &[1, 2], [3, 30, 300], 2, 4, 2, 31),
        Size::Ledger => (3000, 1500, &[1, 2, 4, 6, 8], [30, 300, 1000], 3, 5, 3, 2021),
    };
    let setup = format!(
        "HCUs {hcus:?} × MCUs {mcus:?}, 30 % field, {unsup} + {sup} epochs, {train} + {test} rows per class"
    );
    let mut e = Experiment::new("fig3", setup, seed, reps);
    let data = higgs(train, test);
    let mut grid: Vec<(usize, usize, Aggregate)> = Vec::new();
    for n_mcu in mcus {
        for &n_hcu in hcus {
            let cfg = BcpnnRunConfig {
                n_hcu,
                n_mcu,
                receptive_field: 0.30,
                unsupervised_epochs: unsup,
                supervised_epochs: sup,
                ..Default::default()
            };
            grid.push((n_mcu, n_hcu, run_repeated(&cfg, &data, reps, seed).1));
        }
    }
    // The grid is MCU-major: the first HCU count's ladder is every
    // `hcus.len()`-th entry.
    let [small, medium, large] = [0, 1, 2].map(|m| &grid[m * hcus.len()].2);
    let first_jump = medium.mean_accuracy - small.mean_accuracy;
    let second_jump = large.mean_accuracy - medium.mean_accuracy;
    e.claim(
        "fig3.capacity_in_one_hcu",
        format!(
            "{} MCU in {} HCU: {} / {} / {} ({:+.2} then {:+.2} points)",
            mcus.map(|m| m.to_string()).join(" / "),
            hcus[0],
            accuracy(small),
            accuracy(medium),
            accuracy(large),
            first_jump * 100.0,
            second_jump * 100.0
        ),
        medium.mean_accuracy > small.mean_accuracy + 0.005
            && large.mean_accuracy > small.mean_accuracy
            && second_jump < first_jump,
    );
    let ((m0, h0, least), (m1, h1, most)) = (&grid[0], &grid[grid.len() - 1]);
    let ratio = most.mean_time_s / least.mean_time_s;
    e.claim(
        "fig3.time_grows_with_size",
        format!(
            "{h0} HCU × {m0} MCU: {} → {h1} × {m1}: {} ({ratio:.1} ×)",
            fit_time(least),
            fit_time(most)
        ),
        ratio > 1.5,
    );
    let rows: Vec<String> = grid
        .iter()
        .map(|(m, h, a)| {
            format!(
                "{m} | {h} | {} | {:.3} | {}",
                accuracy(a),
                a.mean_auc,
                fit_time(a)
            )
        })
        .collect();
    e.finish(
        t0,
        table("MCUs per HCU | HCUs | accuracy | AUC | fit", &rows),
    )
}

/// **Fig. 4 — receptive-field density against accuracy and training
/// time** for one HCU.
pub fn fig4(size: Size) -> Experiment {
    let t0 = Instant::now();
    type Setup = (
        usize,
        usize,
        usize,
        usize,
        usize,
        usize,
        u64,
        &'static [f64],
    );
    let (train, test, n_mcu, unsup, sup, reps, seed, densities): Setup = match size {
        // 1 % density is 3 of 280 inputs: barely any information reaches
        // the HCU.
        Size::Quick => (1500, 750, 150, 2, 4, 2, 41, &[0.01, 0.40, 0.95]),
        Size::Ledger => {
            let tenths = &[0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95];
            (3000, 1500, 1000, 3, 8, 3, 2021, tenths)
        }
    };
    let setup =
        format!("1 HCU × {n_mcu} MCU, {unsup} + {sup} epochs, {train} + {test} rows per class");
    let mut e = Experiment::new("fig4", setup, seed, reps);
    let data = higgs(train, test);
    // (density in percent, aggregate over the repetitions)
    let sweep: Vec<(f64, Aggregate)> = densities
        .iter()
        .map(|&density| {
            let cfg = BcpnnRunConfig {
                n_mcu,
                receptive_field: density,
                unsupervised_epochs: unsup,
                supervised_epochs: sup,
                ..Default::default()
            };
            (density * 100.0, run_repeated(&cfg, &data, reps, seed).1)
        })
        .collect();
    let (tiny_pct, tiny) = &sweep[0];
    let (dense_pct, dense) = &sweep[sweep.len() - 1];
    let (mid_pct, mid) = nearest_to_40(&sweep, |(d, _)| d / 100.0);
    let (peak_pct, peak) = sweep
        .iter()
        .max_by(|a, b| a.1.mean_accuracy.total_cmp(&b.1.mean_accuracy))
        .expect("non-empty sweep");
    e.claim(
        "fig4.tiny_fields_near_chance",
        format!(
            "{tiny_pct:.0} % density: {} → {mid_pct:.0} %: {}",
            accuracy(tiny),
            accuracy(mid)
        ),
        tiny.mean_accuracy < 0.62 && mid.mean_accuracy > tiny.mean_accuracy + 0.05,
    );
    e.claim(
        "fig4.peak_near_40",
        format!(
            "best density {peak_pct:.0} %: {}; {dense_pct:.0} %: {}",
            accuracy(peak),
            accuracy(dense)
        ),
        (25.0..=55.0).contains(peak_pct),
    );
    // The paper's spread is 1.2 ×; a factor of two is allowed so a noisy
    // host cannot fail it — the point is that time does not scale with a
    // 19 × denser mask.
    let (t_tiny, t_dense) = (tiny.mean_time_s, dense.mean_time_s);
    let ratio = t_tiny.max(t_dense) / t_tiny.min(t_dense).max(1e-9);
    e.claim(
        "fig4.time_flat_in_density",
        format!(
            "{tiny_pct:.0} % density: {} → {dense_pct:.0} %: {} ({ratio:.1} ×)",
            fit_time(tiny),
            fit_time(dense)
        ),
        ratio < 2.0,
    );
    let rows: Vec<String> = sweep
        .iter()
        .map(|(d, a)| {
            format!(
                "{d:.0} % | {} | {:.3} | {}",
                accuracy(a),
                a.mean_auc,
                fit_time(a)
            )
        })
        .collect();
    let mut detail = table("density | accuracy | AUC | fit", &rows);
    if ratio >= 2.0 {
        detail.push_str(
            "\nFit time is not flat in density here — a lead for ROADMAP G/J (where the fit \
             spends its time), recorded, not chased in this ledger.\n",
        );
    }
    e.finish(t0, detail)
}

/// One density of [`fig5`]: the final mask of the HCU and what it covers.
struct Budget {
    density: f64,
    active: HashSet<usize>,
    noise_share: f64,
    features_reached: usize,
    kept_from_previous: Option<f64>,
    accuracy: f64,
    picture: String,
}

/// **Fig. 5 — the final mask of one HCU at every budget**: where the field
/// ends up per physics feature, how much of it sits on the generator's
/// pure-noise azimuthal angles, and how much of a smaller budget's mask
/// survives in the next larger one.
pub fn fig5(size: Size) -> Experiment {
    let t0 = Instant::now();
    type Setup = (usize, usize, usize, u64, &'static [f64]);
    let (train, test, n_mcu, seed, densities): Setup = match size {
        Size::Quick => (1000, 250, 100, 61, &[0.10, 0.40, 0.80]),
        Size::Ledger => {
            let budgets = &[0.05, 0.10, 0.20, 0.30, 0.40, 0.60, 0.80, 0.95];
            (2000, 500, 300, 2021, budgets)
        }
    };
    let setup = format!(
        "1 HCU × {n_mcu} MCU, 3 + 8 epochs, {train} + {test} rows per class, one run per density"
    );
    let mut e = Experiment::new("fig5", setup, seed, 1);
    let data = higgs(train, test);
    let n_bins = data.encoder.n_bins();
    let feature_names: Vec<String> = FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
    let noise_features = noise_feature_indices();

    let mut budgets: Vec<Budget> = Vec::new();
    for &density in densities {
        let cfg = BcpnnRunConfig {
            n_mcu,
            receptive_field: density,
            ..Default::default()
        };
        let mut network = build_network(&cfg, data.encoded_width(), seed);
        build_trainer(&cfg, seed)
            .fit(&mut network, &data.x_train, &data.y_train)
            .expect("training failed");
        let eval = network
            .evaluate(&data.x_test, &data.y_test)
            .expect("evaluation failed");
        let mask = network.hidden().receptive_field_snapshot();
        let row = mask.row(0);
        let active: HashSet<usize> = (0..row.len()).filter(|&c| row[c] == 1.0).collect();
        let on_noise = active
            .iter()
            .filter(|&&c| noise_features.contains(&(c / n_bins)))
            .count();
        let features: HashSet<usize> = active.iter().map(|c| c / n_bins).collect();
        let kept_from_previous = budgets.last().map(|prev| {
            prev.active.intersection(&active).count() as f64 / prev.active.len().max(1) as f64
        });
        budgets.push(Budget {
            density,
            noise_share: on_noise as f64 / active.len().max(1) as f64,
            features_reached: features.len(),
            kept_from_previous,
            accuracy: eval.accuracy,
            picture: render_feature_mask(row, &feature_names, n_bins),
            active,
        });
    }

    let reached: Vec<usize> = budgets.iter().map(|b| b.features_reached).collect();
    e.claim(
        "fig5.coverage_grows_with_budget",
        format!(
            "features reached (of {}) at {:.0}–{:.0} % density: {}",
            FEATURE_NAMES.len(),
            densities[0] * 100.0,
            densities[densities.len() - 1] * 100.0,
            join(&reached)
        ),
        reached.windows(2).all(|w| w[0] <= w[1]) && reached[0] < reached[reached.len() - 1],
    );
    let least_kept = budgets
        .iter()
        .filter_map(|b| b.kept_from_previous)
        .fold(1.0, f64::min);
    e.claim(
        "fig5.masks_not_nested",
        format!(
            "least share of a smaller mask kept by the next larger one: {:.0} %",
            least_kept * 100.0
        ),
        least_kept < 1.0,
    );
    // Judged at the headline's budget: at 95 % the mask is nearly the whole
    // input and its noise share is the input's by construction.
    let at_40 = nearest_to_40(&budgets, |b| b.density);
    let noise_share_of_input = noise_features.len() as f64 / FEATURE_NAMES.len() as f64;
    e.claim(
        "fig5.noise_features_avoided",
        format!(
            "{:.1} % of the {:.0} % mask sits on the {} noise features, which are {:.1} % of the input",
            at_40.noise_share * 100.0,
            at_40.density * 100.0,
            noise_features.len(),
            noise_share_of_input * 100.0
        ),
        at_40.noise_share < noise_share_of_input,
    );
    let rows: Vec<String> = budgets
        .iter()
        .map(|b| {
            let kept = b.kept_from_previous;
            format!(
                "{:.0} % | {} | {} | {:.1} % | {} | {}",
                b.density * 100.0,
                b.active.len(),
                b.features_reached,
                b.noise_share * 100.0,
                kept.map_or("–".to_string(), |k| format!("{:.0} %", k * 100.0)),
                pct(b.accuracy)
            )
        })
        .collect();
    let mut detail = table(
        "density | active connections | features reached | on noise features | kept from the previous mask | accuracy",
        &rows,
    );
    for b in &budgets {
        detail.push_str(&format!(
            "\nMask at {:.0} % density (one row per feature, one column per quantile bin):\n\n```text\n{}```\n",
            b.density * 100.0,
            b.picture
        ));
    }
    e.finish(t0, detail)
}

/// **§IV — hyperparameter search**: the [`crate::search`] stand-ins for Ax
/// and Nevergrad (random search, a (1 + λ) evolution strategy) over the
/// canonical BCPNN space, against the untuned default configuration. Every
/// score is the accuracy on the split the searches optimise.
pub fn search(size: Size) -> Experiment {
    let t0 = Instant::now();
    // The miniature search divides the space's 30 / 300 / 3000 MCU choices
    // by ten so that a debug-profile trial stays in seconds.
    let (train, test, budget, mcu_divisor, seed) = match size {
        Size::Quick => (500, 250, 3, 10, 67),
        Size::Ledger => (1500, 750, 16, 1, 2021),
    };
    let setup = format!(
        "{budget} trials per strategy, 2 + 3 epochs per trial, {train} + {test} rows per class"
    );
    let mut e = Experiment::new("search", setup, seed, 1);
    let data = higgs(train, test);
    let untuned = BcpnnRunConfig {
        unsupervised_epochs: 2,
        supervised_epochs: 3,
        ..Default::default()
    };
    let config_from = |params: &ParamSet| BcpnnRunConfig {
        n_hcu: params["n_hcu"].as_i64() as usize,
        n_mcu: params["n_mcu"]
            .as_str()
            .parse::<usize>()
            .expect("categorical MCU count")
            / mcu_divisor,
        receptive_field: params["receptive_field"].as_f64(),
        trace_rate: params["trace_rate"].as_f64() as f32,
        support_noise: params["support_noise"].as_f64() as f32,
        ..untuned.clone()
    };
    let score = |cfg: &BcpnnRunConfig| run_bcpnn(cfg, &data, seed).primary.accuracy;
    let objective = |params: &ParamSet| score(&config_from(params));
    let random = RandomSearch::new(bcpnn_higgs_space(), seed).run(budget, objective);
    let evolution_config = EvolutionConfig {
        offspring: 4,
        mutation_rate: 0.5,
        seed,
    };
    let evolution =
        EvolutionSearch::new(bcpnn_higgs_space(), evolution_config).run(budget, objective);
    let untuned_score = score(&untuned);

    let describe = |cfg: &BcpnnRunConfig| {
        let field = cfg.receptive_field * 100.0;
        format!(
            "{} HCU × {} MCU, {field:.0} % field, trace rate {:.3}",
            cfg.n_hcu, cfg.n_mcu, cfg.trace_rate
        )
    };
    let mut rows = vec![format!(
        "untuned default | 1 | {} | {}",
        pct(untuned_score),
        describe(&untuned)
    )];
    let mut best = f64::NEG_INFINITY;
    for (name, history) in [
        ("random search", &random),
        ("evolution strategy", &evolution),
    ] {
        let trial = history.best().expect("non-empty history");
        best = best.max(trial.score);
        let found = describe(&config_from(&trial.params));
        rows.push(format!(
            "{name} | {} | {} | {found}",
            history.trials().len(),
            pct(trial.score)
        ));
    }
    e.claim(
        "search.tuned_beats_default",
        format!(
            "best of 2 × {budget} trials {} against the untuned default's {}",
            pct(best),
            pct(untuned_score)
        ),
        best > untuned_score,
    );
    e.finish(
        t0,
        table(
            "strategy | trials | best accuracy | best configuration",
            &rows,
        ),
    )
}

/// Run every experiment, in ledger order.
pub fn run_all(size: Size) -> Vec<Experiment> {
    [headline, baselines, fig2, fig3, fig4, fig5, search]
        .iter()
        .map(|experiment| experiment(size))
        .collect()
}

/// The host facts the ledger states once, at the top.
pub fn host_line() -> String {
    format!(
        "SIMD tier `{}`, {} pool threads",
        dispatch::active_tier().as_str(),
        bcpnn_parallel::global_pool().num_threads()
    )
}

/// Render `EXPERIMENTS.md`: what was run and on what, one pipe row per
/// claim (id first, verdict last, so `cut -d'|' -f2,8` diffs two ledgers),
/// wall time per experiment then in total, and each experiment's tables.
pub fn render_ledger(size: Size, host: &str, experiments: &[Experiment]) -> String {
    let mut out = format!(
        "# EXPERIMENTS — the reproduction ledger\n\n\
         Generated, not written: `cargo run --release -p bcpnn-bench --bin reproduce > EXPERIMENTS.md`\n\
         prints this file, `tests/experiment_shapes.rs` asserts the same claims on miniature\n\
         set-ups, and CI regenerates it and diffs the id and verdict columns.\n\n\
         **Data: the synthetic Higgs generator** (`bcpnn_data::higgs::generate`, 28 features,\n\
         10 quantile bins, balanced classes). The real `HIGGS.csv` is not in the repository, so\n\
         absolute values cannot match the paper's and only the *shape* of each claim is judged;\n\
         a real-data column waits until the file is. A `no` below is a recorded gap, not a\n\
         failed build.\n\n\
         Size `{size:?}`, {host}. `ours` is mean ± sample standard deviation over the\n\
         repetitions; a verdict is the paper's sentence evaluated on the means.\n\n\
         ## Claims\n\n"
    );
    let claim_rows: Vec<String> = experiments
        .iter()
        .flat_map(|e| {
            e.claims.iter().map(move |c| {
                let verdict = if c.holds { "yes" } else { "no" };
                format!(
                    "{} | {} | {} | {} | {} | {:.1} | {verdict}",
                    c.id, c.paper, c.ours, e.seeds, e.repetitions, e.wall_s
                )
            })
        })
        .collect();
    out.push_str(&table(
        "id | paper | ours | seeds | repetitions | experiment wall s | holds",
        &claim_rows,
    ));

    let mut time_rows: Vec<String> = experiments
        .iter()
        .map(|e| format!("{} | {} | {:.1}", e.name, e.setup, e.wall_s))
        .collect();
    let total: f64 = experiments.iter().map(|e| e.wall_s).sum();
    time_rows.push(format!("total | all of the above | {total:.1}"));
    out.push_str("\n## Wall time\n\n");
    out.push_str(&table("experiment | set-up | wall s", &time_rows));

    for e in experiments {
        out.push_str(&format!("\n## {}\n\n{}\n\n{}", e.name, e.setup, e.detail));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_ids_are_unique_and_prefixed_by_an_experiment() {
        let ids = claim_ids();
        let unique: HashSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len());
        let experiments = [
            "headline",
            "baselines",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "search",
        ];
        for id in ids {
            let (experiment, _) = id.split_once('.').expect("ids are <experiment>.<claim>");
            assert!(experiments.contains(&experiment), "{id}");
        }
    }

    #[test]
    fn ledger_renders_a_fixed_claim_list_byte_for_byte() {
        let mut headline = Experiment::new("headline", "1 HCU × 3000 MCU".into(), 2021, 5);
        headline.claim(
            "headline.hybrid_accuracy",
            "67.07 ± 0.40% → 66.61 ± 0.52%".into(),
            false,
        );
        headline.claim(
            "headline.hybrid_auc",
            "0.723 ± 0.004 → 0.729 ± 0.003".into(),
            true,
        );
        headline.detail = "One table.\n".into();
        headline.wall_s = 66.04;
        let got = render_ledger(
            Size::Ledger,
            "SIMD tier `avx2`, 2 pool threads",
            &[headline],
        );
        let (preamble, body) = got.split_once("## Claims\n").expect("claims section");
        assert!(preamble.starts_with("# EXPERIMENTS — the reproduction ledger\n"));
        assert!(preamble.contains("**Data: the synthetic Higgs generator**"));
        assert!(preamble.contains("Size `Ledger`, SIMD tier `avx2`, 2 pool threads."));
        let want = format!(
            "\n\
| id | paper | ours | seeds | repetitions | experiment wall s | holds |
| --- | --- | --- | --- | --- | --- | --- |
| headline.hybrid_accuracy | {} | 67.07 ± 0.40% → 66.61 ± 0.52% | 2021–2025 | 5 | 66.0 | no |
| headline.hybrid_auc | {} | 0.723 ± 0.004 → 0.729 ± 0.003 | 2021–2025 | 5 | 66.0 | yes |

## Wall time

| experiment | set-up | wall s |
| --- | --- | --- |
| headline | 1 HCU × 3000 MCU | 66.0 |
| total | all of the above | 66.0 |

## headline

1 HCU × 3000 MCU

One table.
",
            CLAIMS[0].1, CLAIMS[1].1
        );
        assert_eq!(body, want);
    }
}
