//! Full Higgs classification workflow with receptive-field inspection.
//!
//! The motivating use case of the paper: discriminate signal from
//! background collisions *and* learn something about the data stream from
//! the structure the network chooses. This example runs the complete
//! pipeline on a larger synthetic set (or on the real `HIGGS.csv` if you
//! pass its path), trains a 4-HCU network, prints the confusion matrix,
//! per-class precision/recall, and then renders where every hypercolumn
//! decided to look, grouped by physics feature.
//!
//! ```text
//! cargo run --release --example higgs_classification
//! cargo run --release --example higgs_classification -- /path/to/HIGGS.csv
//! ```

use bcpnn_backend::BackendKind;
use bcpnn_core::{metrics, Network, ReadoutKind, Trainer, TrainingParams};
use bcpnn_data::csv::load_higgs_csv;
use bcpnn_data::encode::QuantileEncoder;
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_data::split::{balanced_subset, stratified_split};
use bcpnn_data::Dataset;

fn load_data() -> Dataset {
    match std::env::args().nth(1) {
        Some(path) => {
            println!("loading real HIGGS data from {path} (first 200k rows)");
            load_higgs_csv(&path, Some(200_000)).expect("failed to read HIGGS.csv")
        }
        None => {
            println!("no CSV path given; generating synthetic Higgs collisions");
            generate(&SyntheticHiggsConfig {
                n_samples: 30_000,
                ..Default::default()
            })
        }
    }
}

fn main() {
    let collisions = load_data();
    println!("dataset: {}\n", collisions.summary());

    // Balanced subset + split, as in §V.
    let (train_pool, test_pool) = stratified_split(&collisions, 0.3, 11);
    let per_class_train = train_pool
        .class_counts()
        .into_iter()
        .min()
        .unwrap_or(0)
        .min(6_000);
    let per_class_test = test_pool
        .class_counts()
        .into_iter()
        .min()
        .unwrap_or(0)
        .min(3_000);
    let train = balanced_subset(&train_pool, per_class_train, 12);
    let test = balanced_subset(&test_pool, per_class_test, 13);

    let encoder = QuantileEncoder::fit(&train, 10);
    let x_train = encoder.transform(&train);
    let x_test = encoder.transform(&test);

    let mut network = Network::builder()
        .input(x_train.cols())
        .hidden(4, 300, 0.40)
        .classes(2)
        .readout(ReadoutKind::Hybrid)
        .backend(BackendKind::Parallel)
        .seed(2021)
        .build()
        .expect("valid configuration");
    let report = Trainer::new(TrainingParams {
        unsupervised_epochs: 4,
        supervised_epochs: 8,
        batch_size: 128,
        seed: 2021,
        shuffle: true,
    })
    .fit(&mut network, &x_train, &train.labels)
    .expect("training succeeds");
    println!(
        "trained in {:.1}s ({} structural-plasticity swaps)\n",
        report.train_time_seconds(),
        report.total_plasticity_swaps()
    );

    // Evaluation: the numbers the paper reports, plus the confusion matrix.
    let eval = network
        .evaluate(&x_test, &test.labels)
        .expect("evaluation succeeds");
    println!("test performance: {eval}");
    let predictions = network.predict(&x_test).expect("prediction succeeds");
    let cm = metrics::confusion_matrix(&predictions, &test.labels, 2);
    println!("confusion matrix (rows = truth, cols = prediction):");
    println!("              background  signal");
    println!("  background  {:>10}  {:>6}", cm[0][0], cm[0][1]);
    println!("  signal      {:>10}  {:>6}\n", cm[1][0], cm[1][1]);

    // Structural-plasticity inspection: where does each HCU look?
    let mask = network.hidden().receptive_field_snapshot();
    let n_bins = encoder.n_bins();
    for h in 0..mask.rows() {
        println!(
            "--- receptive field of HCU {h} (density {:.0}%) ---",
            network.hidden().mask().density() * 100.0
        );
        println!(
            "{}",
            bcpnn_bench::ascii::render_feature_mask(mask.row(h), &train.feature_names, n_bins)
        );
    }
    // Which physics features get the most attention across HCUs?
    let mut per_feature: Vec<(String, usize)> = train
        .feature_names
        .iter()
        .enumerate()
        .map(|(f, name)| {
            let count = (0..mask.rows())
                .map(|h| {
                    (0..n_bins)
                        .filter(|&b| mask.get(h, f * n_bins + b) == 1.0)
                        .count()
                })
                .sum();
            (name.clone(), count)
        })
        .collect();
    per_feature.sort_by_key(|entry| std::cmp::Reverse(entry.1));
    println!("most-attended physics features (active connections across all HCUs):");
    for (name, count) in per_feature.iter().take(8) {
        println!("  {name:<26} {count}");
    }
    println!("least-attended:");
    for (name, count) in per_feature.iter().rev().take(4) {
        println!("  {name:<26} {count}");
    }
}
