//! Crash-recovery integration: a hard-killed learner must rebuild its
//! in-memory shadow **bit-for-bit** from checkpoint + replay log. The
//! durability contract makes this possible: a row is folded into the
//! shadow only after its frame is synced to disk, and the shadow is
//! always (re-)established by loading a checkpoint, so the on-disk pair
//! exactly describes the in-memory state at every instant.
//!
//! The same determinism covers fold boundaries: they come from the posts,
//! never from when the trainer thread wakes, so learners fed the same
//! posts end byte-identical however they are drained.

use std::path::Path;
use std::sync::Arc;

use bcpnn_backend::BackendKind;
use bcpnn_core::{Network, Pipeline, ReadoutKind, TrainingParams};
use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
use bcpnn_learn::{LearnError, LearnerConfig, OnlineLearner};
use bcpnn_serve::{ModelRegistry, RowBlock, ServedModel};

fn fit_base(seed: u64) -> (Pipeline, bcpnn_data::Dataset) {
    let data = generate(&SyntheticHiggsConfig {
        n_samples: 300,
        seed,
        ..Default::default()
    });
    let (pipeline, _) = Pipeline::fit(
        &data,
        8,
        Network::builder()
            .hidden(2, 4, 0.3)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(BackendKind::Naive)
            .seed(seed),
        TrainingParams {
            unsupervised_epochs: 1,
            supervised_epochs: 1,
            batch_size: 50,
            ..Default::default()
        },
    )
    .unwrap();
    (pipeline, data)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bcpnn-learn-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Byte-for-byte equality of two saved pipeline artifacts.
fn dirs_identical(a: &Path, b: &Path) {
    let mut names: Vec<String> = std::fs::read_dir(a)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    let mut names_b: Vec<String> = std::fs::read_dir(b)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names_b.sort();
    assert_eq!(names, names_b, "artifact file sets differ");
    assert!(!names.is_empty(), "artifact directories are empty");
    for name in names {
        let bytes_a = std::fs::read(a.join(&name)).unwrap();
        let bytes_b = std::fs::read(b.join(&name)).unwrap();
        assert_eq!(bytes_a, bytes_b, "artifact file {name} differs byte-wise");
    }
}

/// No-publish config: the test controls durability purely through the
/// replay log of generation 0.
fn no_publish_config(state_dir: std::path::PathBuf) -> LearnerConfig {
    LearnerConfig {
        state_dir,
        backend: BackendKind::Naive,
        fold_rows: 16,
        publish_rows: u64::MAX,
        reservoir_stride: 3,
        ..LearnerConfig::default()
    }
}

#[test]
fn a_killed_learner_replays_its_log_into_an_identical_shadow() {
    let (base, data) = fit_base(41);
    let state_dir = temp_dir("identical");
    let out_dir = temp_dir("identical-out");

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, base.clone()));

    // First life: fold 120 labeled rows (the stride diverts every 3rd
    // into the in-memory reservoir, so folds and held-outs interleave).
    let shadow_before = {
        let learner = OnlineLearner::start(
            Arc::clone(&registry),
            "higgs",
            &base,
            no_publish_config(state_dir.clone()),
        )
        .unwrap();
        for chunk in 0..6 {
            let rows: Vec<Vec<f32>> = (0..20)
                .map(|i| data.features.row(chunk * 20 + i).to_vec())
                .collect();
            let labels: Vec<usize> = (0..20).map(|i| data.labels[chunk * 20 + i]).collect();
            assert_eq!(
                learner.submit(RowBlock::from_rows(&rows), &labels).unwrap(),
                20
            );
        }
        learner.drain();
        let snapshot = learner.metrics();
        assert_eq!(snapshot.rows_ingested, 120);
        assert!(snapshot.rows_trained > 0, "{snapshot:?}");
        assert!(snapshot.rows_heldout > 0, "{snapshot:?}");
        assert_eq!(snapshot.publishes, 0, "{snapshot:?}");
        learner.shadow_pipeline()
        // Dropping the learner here is the "kill": the queue is empty
        // (drained), so every trained row is already on disk, which is
        // exactly what the durability-before-training order guarantees
        // at any kill point.
    };
    shadow_before.save(out_dir.join("before")).unwrap();

    // Simulate a torn final write at kill time: garbage appended past the
    // last synced frame must be dropped by recovery, not replayed.
    {
        use std::io::Write;
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(state_dir.join("replay-0.log"))
            .unwrap();
        log.write_all(&[0x41, 0x42, 0x43]).unwrap();
    }

    // Second life: same state dir. The base argument must be ignored in
    // favor of recovered state — hand it a freshly fitted decoy to prove
    // it.
    let (decoy, _) = fit_base(97);
    let learner = OnlineLearner::start(
        Arc::clone(&registry),
        "higgs",
        &decoy,
        no_publish_config(state_dir.clone()),
    )
    .unwrap();
    let snapshot = learner.metrics();
    assert!(snapshot.replayed_frames > 0, "{snapshot:?}");
    let shadow_after = learner.shadow_pipeline();
    shadow_after.save(out_dir.join("after")).unwrap();

    dirs_identical(&out_dir.join("before"), &out_dir.join("after"));

    // And the rebuilt shadow keeps learning: fold more rows on top.
    let rows: Vec<Vec<f32>> = (120..140).map(|i| data.features.row(i).to_vec()).collect();
    let labels: Vec<usize> = (120..140).map(|i| data.labels[i]).collect();
    learner.submit(RowBlock::from_rows(&rows), &labels).unwrap();
    learner.drain();
    drop(learner);

    let _ = std::fs::remove_dir_all(&state_dir);
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn restart_after_a_publish_resumes_from_the_new_generation() {
    let (base, data) = fit_base(43);
    let state_dir = temp_dir("generation");
    let out_dir = temp_dir("generation-out");

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, base.clone()));

    // Publish every 40 trained rows, ungated (stride 0 => no reservoir,
    // cold-start publishes pass).
    let config = LearnerConfig {
        state_dir: state_dir.clone(),
        backend: BackendKind::Naive,
        fold_rows: 16,
        publish_rows: 40,
        reservoir_stride: 0,
        ..LearnerConfig::default()
    };

    let shadow_before = {
        let learner =
            OnlineLearner::start(Arc::clone(&registry), "higgs", &base, config.clone()).unwrap();
        let rows: Vec<Vec<f32>> = (0..100).map(|i| data.features.row(i).to_vec()).collect();
        let labels: Vec<usize> = (0..100).map(|i| data.labels[i]).collect();
        learner.submit(RowBlock::from_rows(&rows), &labels).unwrap();
        learner.drain();
        let snapshot = learner.metrics();
        assert!(snapshot.publishes >= 1, "{snapshot:?}");
        learner.shadow_pipeline()
    };
    shadow_before.save(out_dir.join("before")).unwrap();

    // The hot-swap reached the registry.
    let live = registry.lookup("higgs").unwrap();
    assert!(live.version() > 1);

    // Restart: the recovered generation is the post-publish one, plus
    // whatever the log accumulated after it.
    let learner = OnlineLearner::start(Arc::clone(&registry), "higgs", &base, config).unwrap();
    let shadow_after = learner.shadow_pipeline();
    shadow_after.save(out_dir.join("after")).unwrap();
    dirs_identical(&out_dir.join("before"), &out_dir.join("after"));
    drop(learner);

    let _ = std::fs::remove_dir_all(&state_dir);
    let _ = std::fs::remove_dir_all(&out_dir);
}

/// One learner's run over `posts`: drained after every post or only once
/// at the end. Saves its shadow under `out` and returns its counters.
fn learn_posts(
    tag: &str,
    base: &Pipeline,
    posts: &[(RowBlock, Vec<usize>)],
    drain_each: bool,
    out: &Path,
) -> bcpnn_learn::LearnSnapshot {
    let state_dir = temp_dir(tag);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, base.clone()));
    let learner = OnlineLearner::start(
        registry,
        "higgs",
        base,
        LearnerConfig {
            state_dir: state_dir.clone(),
            backend: BackendKind::Parallel,
            fold_rows: 64,
            publish_rows: 120,
            reservoir_stride: 10,
            min_eval_rows: 8,
            ..LearnerConfig::default()
        },
    )
    .unwrap();
    for (rows, labels) in posts {
        assert_eq!(learner.submit(rows.clone(), labels).unwrap(), 100);
        if drain_each {
            learner.drain();
        }
    }
    learner.drain();
    learner.shadow_pipeline().save(out).unwrap();
    let snapshot = learner.metrics();
    drop(learner);
    let _ = std::fs::remove_dir_all(&state_dir);
    snapshot
}

#[test]
fn learners_fed_the_same_posts_fold_identically_however_they_drain() {
    let (base, _) = fit_base(47);
    let stream = generate(&SyntheticHiggsConfig {
        n_samples: 500,
        seed: 48,
        ..Default::default()
    });
    let posts: Vec<(RowBlock, Vec<usize>)> = (0..5)
        .map(|post| {
            let range = post * 100..(post + 1) * 100;
            let rows: Vec<Vec<f32>> = range
                .clone()
                .map(|i| stream.features.row(i).to_vec())
                .collect();
            let labels = range.map(|i| stream.labels[i]).collect();
            (RowBlock::from_rows(&rows), labels)
        })
        .collect();
    let out_dir = temp_dir("posts-out");

    let each = learn_posts("posts-each", &base, &posts, true, &out_dir.join("each"));
    let end = learn_posts("posts-end", &base, &posts, false, &out_dir.join("end"));

    // 100-row posts at `fold_rows` 64 are folds of 64 and 36, and the
    // 450 trained rows cross `publish_rows` mid-stream more than once.
    assert_eq!(each.folds, 10, "{each:?}");
    assert!(each.publishes >= 1, "{each:?}");
    assert!(each.publishes + each.publishes_rejected >= 2, "{each:?}");
    assert_eq!(
        (each.folds, each.publishes, each.rows_trained),
        (end.folds, end.publishes, end.rows_trained),
        "drained after each post: {each:?}\ndrained at the end: {end:?}"
    );
    dirs_identical(&out_dir.join("each"), &out_dir.join("end"));
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn a_post_larger_than_the_queue_is_refused_for_good() {
    let (base, data) = fit_base(49);
    let state_dir = temp_dir("oversized");
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(ServedModel::new("higgs", 1, base.clone()));
    let learner = OnlineLearner::start(
        registry,
        "higgs",
        &base,
        LearnerConfig {
            queue_capacity: 8,
            ..no_publish_config(state_dir.clone())
        },
    )
    .unwrap();
    let post = |n: usize| {
        let rows: Vec<Vec<f32>> = (0..n).map(|i| data.features.row(i).to_vec()).collect();
        (RowBlock::from_rows(&rows), data.labels[..n].to_vec())
    };

    // No retry can queue nine rows in eight: a bad request, not
    // backpressure.
    let (rows, labels) = post(9);
    let err = learner.submit(rows, &labels).unwrap_err();
    assert!(matches!(err, LearnError::BadBatch(_)), "{err:?}");
    let snapshot = learner.metrics();
    assert_eq!((snapshot.rows_rejected, snapshot.rows_ingested), (0, 0));

    // A post that fits the whole queue is accepted.
    let (rows, labels) = post(8);
    assert_eq!(learner.submit(rows, &labels).unwrap(), 8);
    learner.drain();
    assert_eq!(learner.metrics().rows_ingested, 8);
    drop(learner);
    let _ = std::fs::remove_dir_all(&state_dir);
}
