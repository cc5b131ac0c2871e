//! `learn_beside_predict`: writes beside reads on one model. Client A
//! posts a fixed count of 64-row learn requests, waiting for each to be
//! applied (`drain`); client B posts 64-row predicts until A is done.
//!
//! Every repetition gets a fresh state directory, registry, server and
//! gateway, and the operation count is fixed, because an `OnlineLearner`
//! is not stationary: its work grows as it runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bcpnn_core::{EvalReport, Workspace};
use bcpnn_gateway::client;
use bcpnn_learn::ReplayLog;

use crate::fixture::{fit_served, higgs_data, MODEL};
use crate::loadgen::{closed_loop, learn_bodies, learn_path, predict_requests, Check};
use crate::report::{ensure, Rep, Run, ScratchDir, NS_PER_MS, NS_PER_US};
use crate::stack::{load_model, Stack};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::http::{count, Counters, WARM_UP};

const ROWS_PER_REQUEST: usize = 64;
/// Learn requests per repetition for each second of `--seconds`: sized so
/// the writer runs about a third of `--seconds` on the sizing machine.
const LEARN_REQUESTS_PER_SECOND: u64 = 16;
/// Rows of the fold the learn kernels are timed on
/// (`LearnerConfig::default().fold_rows`).
const FOLD_ROWS: usize = 256;
const KERNEL_ITERATIONS: usize = 10;

pub fn repetition(run: &Run, tracer: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let learn_requests = (LEARN_REQUESTS_PER_SECOND * run.seconds) as usize;

    let setup = Instant::now();
    let data = higgs_data(run.data_seed);
    let scratch = ScratchDir::new(run.out, "learn");
    let model_dir = scratch.path().join("model");
    fit_served(&data.train, run.model_seed)
        .save(&model_dir)
        .expect("saving the served model succeeds");
    let reference = load_model(&model_dir);
    let stack = Stack::gateway_with_learner(&model_dir, &scratch.path().join("state"));
    let Stack::Gateway {
        learner: Some(learner),
        server,
        ..
    } = &stack
    else {
        unreachable!("gateway_with_learner attaches a learner");
    };
    let requests = predict_requests(&data.test, ROWS_PER_REQUEST, run.data_seed, &reference);
    let bodies = learn_bodies(&data.train, ROWS_PER_REQUEST, learn_requests);
    let addr = stack.addr();
    let never = AtomicBool::new(false);
    // Nothing has been learned yet, so replies still equal the reference.
    let warm = closed_loop(
        addr,
        &requests,
        1,
        Check::BitExact { all: true },
        WARM_UP,
        &never,
    );
    count(&mut rep, &warm);
    rep.setup_s = setup.elapsed().as_secs_f64();

    let before = Counters::read(&stack);
    let writer_done = AtomicBool::new(false);
    let path = learn_path();
    let (mut acks_ms, mut applies_ms) = (Vec::new(), Vec::new());
    let mut writer_wall = Duration::ZERO;
    let load = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            closed_loop(
                addr,
                &requests,
                1,
                Check::SumToOne,
                Duration::from_secs(3600),
                &writer_done,
            )
        });
        let started = Instant::now();
        for body in &bodies {
            let sent = Instant::now();
            let reply = client::request(addr, "POST", &path, &[], body);
            let acked = Instant::now();
            rep.check(match reply {
                Ok(reply) if reply.status == 200 => Ok(()),
                Ok(reply) => Err(format!("learn post answered {}", reply.status)),
                Err(e) => Err(format!("learn post transport: {e}")),
            });
            learner.drain();
            acks_ms.push((acked - sent).as_secs_f64() * 1e3);
            applies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        }
        writer_wall = started.elapsed();
        writer_done.store(true, Ordering::Relaxed);
        reader.join().expect("the reader thread panicked")
    });
    count(&mut rep, &load);
    rep.rows_per_s = load.rows_per_s();

    let learned = learner.metrics();
    let posted = (learn_requests * ROWS_PER_REQUEST) as u64;
    rep.check(ensure(learned.rows_ingested == posted, || {
        format!(
            "learner ingested {} rows, {posted} were posted",
            learned.rows_ingested
        )
    }));
    // What clients are answered with once the writer is done.
    let live = server
        .registry()
        .get(MODEL)
        .expect("the model stays published");
    let proba = live
        .predictor()
        .predict_proba(&data.test.features)
        .expect("prediction succeeds");
    rep.quality(&EvalReport::from_probabilities(&proba, &data.test.labels));

    if tracer.on() {
        Counters::read(&stack).layers_since(&before, &mut rep);
        rep.layer(
            "learn.rows_per_s",
            posted as f64 / writer_wall.as_secs_f64(),
        );
        rep.layer("learn.post_ack_p50_ms", median(&acks_ms));
        rep.layer("learn.apply_p50_ms", median(&applies_ms));
        rep.layer("learn.folds", learned.folds as f64);
        rep.layer("learn.publishes", learned.publishes as f64);
        rep.layer(
            "learn.publishes_rejected",
            learned.publishes_rejected as f64,
        );
        rep.layer("learn.rows_heldout", learned.rows_heldout as f64);
        rep.layer("learn.reader_p95_ms", percentile(&load.latencies_ms, 0.95));
        for &(_, sent, parsed) in &load.sampled {
            tracer.record(None, "gateway.request", sent, parsed);
        }
        // The learner's own steps on one fold of labeled rows: the kernel,
        // the replay log's append + sync, and the checkpoint a publish
        // writes and a restart reads.
        let x = data
            .train
            .features
            .select_rows(&(0..FOLD_ROWS).collect::<Vec<_>>());
        let labels = &data.train.labels[..FOLD_ROWS];
        let mut shadow = reference.clone();
        let mut ws = Workspace::new();
        let log_path = scratch.path().join("probe.log");
        let (mut log, _) =
            ReplayLog::open(&log_path).expect("the replay log opens in the scratch directory");
        let checkpoint = scratch.path().join("probe-checkpoint");
        for _ in 0..KERNEL_ITERATIONS {
            tracer.time(None, "core.learn_batch", || {
                shadow
                    .learn_batch(&x, labels, &mut ws)
                    .expect("folding generated rows succeeds");
            });
            tracer.time(None, "learn.replay_append_sync", || {
                log.append(&x, labels)
                    .and_then(|()| log.sync())
                    .expect("the replay log accepts a fold");
            });
            tracer.time(None, "core.save", || {
                shadow.save(&checkpoint).expect("saving succeeds")
            });
            tracer.time(None, "core.load", || load_model(&checkpoint));
        }
        rep.layer_from_spans(
            tracer,
            "core.learn_batch_us_per_row",
            "core.learn_batch",
            NS_PER_US,
            FOLD_ROWS as f64,
        );
        rep.layer_from_spans(
            tracer,
            "learn.replay_append_sync_ms",
            "learn.replay_append_sync",
            NS_PER_MS,
            1.0,
        );
        rep.layer_from_spans(tracer, "core.save_ms", "core.save", NS_PER_MS, 1.0);
        rep.layer_from_spans(tracer, "core.load_ms", "core.load", NS_PER_MS, 1.0);
    }
    rep.latencies_ms = load.latencies_ms;
    rep
}
