//! The load generator: one process, `CLIENTS` closed-loop client threads,
//! one connection per request through `bcpnn_gateway::client::request`.
//!
//! Request bodies are rendered before timing starts, so the client threads
//! spend their time on sockets. Nothing is retried: a connect or IO error,
//! a non-200 status (429 and 503 included) and a malformed or wrong-length
//! reply each count as one failed operation.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bcpnn_core::model::Predictor;
use bcpnn_data::Dataset;
use bcpnn_gateway::client;
use bcpnn_gateway::json::{self, Json};
use bcpnn_tensor::Matrix;

use crate::fixture::MODEL;
use crate::report::MAX_ERRORS;
use crate::spec::SAMPLE_EVERY;

/// One pre-rendered predict request and the answer it must get.
pub struct PredictRequest {
    pub body: Vec<u8>,
    pub rows: Vec<Vec<f32>>,
    /// In-process `predict_proba` of the same rows, row-major.
    pub expected: Vec<f32>,
}

fn render_rows(rows: &[Vec<f32>]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|row| Json::Arr(row.iter().copied().map(Json::f32).collect()))
            .collect(),
    )
}

/// Cut `data` into requests of `rows_per_request` rows (starting at a
/// seed-derived offset, so the request stream follows `--seed`) and
/// compute each request's expected reply with `model` in process.
pub fn predict_requests(
    data: &Dataset,
    rows_per_request: usize,
    seed: u64,
    model: &dyn Predictor,
) -> Vec<PredictRequest> {
    let proba = model
        .predict_proba(&data.features)
        .expect("in-process prediction of the generated rows succeeds");
    let n = data.n_samples();
    let offset = (seed as usize).wrapping_mul(7919) % n;
    (0..n / rows_per_request)
        .map(|i| {
            let index = |r: usize| (offset + i * rows_per_request + r) % n;
            let rows: Vec<Vec<f32>> = (0..rows_per_request)
                .map(|r| data.features.row(index(r)).to_vec())
                .collect();
            let expected = (0..rows_per_request)
                .flat_map(|r| proba.row(index(r)).to_vec())
                .collect();
            PredictRequest {
                body: render_rows(&rows).render().into_bytes(),
                rows,
                expected,
            }
        })
        .collect()
}

/// Pre-rendered `POST …/learn` bodies of `rows_per_request` labeled rows.
pub fn learn_bodies(data: &Dataset, rows_per_request: usize, count: usize) -> Vec<Vec<u8>> {
    let n = data.n_samples();
    (0..count)
        .map(|i| {
            let index = |r: usize| (i * rows_per_request + r) % n;
            let rows: Vec<Vec<f32>> = (0..rows_per_request)
                .map(|r| data.features.row(index(r)).to_vec())
                .collect();
            let labels = (0..rows_per_request)
                .map(|r| Json::u64(data.labels[index(r)] as u64))
                .collect();
            Json::Obj(vec![
                ("rows".into(), render_rows(&rows)),
                ("labels".into(), Json::Arr(labels)),
            ])
            .render()
            .into_bytes()
        })
        .collect()
}

pub fn predict_path() -> String {
    format!("/v1/models/{MODEL}/predict")
}

pub fn learn_path() -> String {
    format!("/v1/models/{MODEL}/learn")
}

/// How replies are checked.
#[derive(Clone, Copy)]
pub enum Check {
    /// Every reply: status 200 and the right row count. Every
    /// `SAMPLE_EVERY`-th reply (all of them when `all`): `to_bits()`
    /// equality with the in-process answer.
    BitExact { all: bool },
    /// The model changes under the reader: row count and rows summing to
    /// one only.
    SumToOne,
}

/// What one closed-loop phase saw.
#[derive(Default)]
pub struct LoadResult {
    pub attempted: u64,
    pub failed: u64,
    /// Rows in replies that passed their checks.
    pub rows_ok: u64,
    pub wall: Duration,
    /// Client send to full reply parsed, successes only.
    pub latencies_ms: Vec<f64>,
    pub response_bytes: u64,
    /// First failure messages, for the report.
    pub errors: Vec<String>,
    /// Every `SAMPLE_EVERY`-th request: (request index, send, reply parsed).
    pub sampled: Vec<(usize, Instant, Instant)>,
}

impl LoadResult {
    fn merge(&mut self, other: LoadResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rows_ok += other.rows_ok;
        self.latencies_ms.extend(other.latencies_ms);
        self.response_bytes += other.response_bytes;
        self.errors.extend(other.errors);
        self.errors.truncate(MAX_ERRORS);
        self.sampled.extend(other.sampled);
    }

    pub fn rows_per_s(&self) -> f64 {
        self.rows_ok as f64 / self.wall.as_secs_f64()
    }
}

/// The probability rows of a predict reply, or why it is malformed.
fn reply_rows(body: &[u8]) -> Result<Vec<Vec<f32>>, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let predictions = doc
        .get("predictions")
        .and_then(Json::as_array)
        .ok_or("reply has no predictions array")?;
    predictions
        .iter()
        .map(|row| {
            row.as_array()
                .ok_or("prediction is not an array")?
                .iter()
                .map(|cell| match cell {
                    Json::Num(n) => n.as_f32().ok_or("probability is not an f32"),
                    _ => Err("probability is not a number"),
                })
                .collect::<Result<Vec<f32>, _>>()
        })
        .collect::<Result<_, _>>()
        .map_err(str::to_string)
}

fn check_reply(
    request: &PredictRequest,
    rows: &[Vec<f32>],
    check: Check,
    nth: usize,
) -> Result<(), String> {
    if rows.len() != request.rows.len() {
        return Err(format!(
            "reply has {} rows, request had {}",
            rows.len(),
            request.rows.len()
        ));
    }
    match check {
        Check::BitExact { all } if all || nth.is_multiple_of(SAMPLE_EVERY) => {
            let served = rows.iter().flatten().map(|v| v.to_bits());
            if !served.eq(request.expected.iter().map(|v| v.to_bits())) {
                return Err("served probabilities differ from the in-process forward pass".into());
            }
        }
        Check::BitExact { .. } => {}
        Check::SumToOne => {
            for row in rows {
                let sum: f32 = row.iter().sum();
                if (sum - 1.0).abs() > 1e-3 {
                    return Err(format!("reply row sums to {sum}"));
                }
            }
        }
    }
    Ok(())
}

/// One client's closed loop: send, wait for the full reply, parse it,
/// check it, send the next. Stops at `deadline` or when `stop` is set.
fn client_loop(
    addr: SocketAddr,
    requests: &[PredictRequest],
    first: usize,
    stride: usize,
    check: Check,
    deadline: Instant,
    stop: &AtomicBool,
) -> LoadResult {
    let path = predict_path();
    let mut result = LoadResult::default();
    let mut index = first;
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        let request = &requests[index % requests.len()];
        let nth = result.attempted as usize;
        result.attempted += 1;
        let sent = Instant::now();
        let outcome = client::request(addr, "POST", &path, &[], &request.body)
            .map_err(|e| format!("transport: {e}"))
            .and_then(|reply| {
                if reply.status != 200 {
                    return Err(format!("status {}", reply.status));
                }
                let rows = reply_rows(&reply.body)?;
                Ok((rows, reply.body.len(), Instant::now()))
            })
            .and_then(|(rows, bytes, parsed)| {
                check_reply(request, &rows, check, nth).map(|()| (bytes, parsed))
            });
        match outcome {
            Ok((bytes, parsed)) => {
                result.rows_ok += request.rows.len() as u64;
                result.response_bytes += bytes as u64;
                result
                    .latencies_ms
                    .push((parsed - sent).as_secs_f64() * 1e3);
                if nth.is_multiple_of(SAMPLE_EVERY) {
                    result.sampled.push((index % requests.len(), sent, parsed));
                }
            }
            Err(why) => {
                result.failed += 1;
                if result.errors.len() < MAX_ERRORS {
                    result.errors.push(why);
                }
            }
        }
        index += stride;
    }
    result
}

/// Run `clients` closed loops against `addr` for `duration` (or until
/// `stop` is set) and merge what they saw.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[PredictRequest],
    clients: usize,
    check: Check,
    duration: Duration,
    stop: &AtomicBool,
) -> LoadResult {
    let started = Instant::now();
    let deadline = started + duration;
    let mut merged = LoadResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || client_loop(addr, requests, c, clients, check, deadline, stop))
            })
            .collect();
        for handle in handles {
            merged.merge(handle.join().expect("a client thread panicked"));
        }
    });
    merged.wall = started.elapsed();
    merged
}

/// A matrix holding the given rows.
pub fn matrix_of(rows: &[Vec<f32>]) -> Matrix<f32> {
    let width = rows.first().map_or(0, Vec::len);
    Matrix::from_vec(rows.len(), width, rows.concat())
}
