//! End-to-end uncertainty round-trip tests: the gateway's HTTP exterior
//! and the cluster's binary interior must carry confidence — entropy,
//! top-2 margin, and the abstention verdict — **bit for bit** against a
//! direct in-process call. The abstention gate compares the same `f32`s
//! on every path (the header's decimal is shortest-round-trip, the wire
//! carries raw bits), so a client can recompute exactly which rows
//! abstained from the model's own probabilities. (Malformed
//! `X-Abstain-Below` headers are `front_contract`'s table.)

mod common;

use bcpnn_backend::BackendKind;
use bcpnn_core::model::Predictor;
use bcpnn_core::uncertainty::{entropy, margin};
use bcpnn_gateway::{client, json, FrontConfig};
use bcpnn_serve::ServedModel;
use bcpnn_tensor::Matrix;

use common::{rows_body, tiny_pipeline, Front};

/// A predict response's parallel per-row arrays, decoded exactly:
/// `None` entries are the abstained rows' JSON `null`s.
struct PredictReply {
    predictions: Vec<Option<Vec<f32>>>,
    uncertainty: Vec<Option<(f32, f32)>>,
    abstained: Vec<bool>,
}

fn num_of(value: Option<&json::Json>, what: &str) -> f32 {
    match value {
        Some(json::Json::Num(n)) => n.as_f32().unwrap_or_else(|| panic!("{what} is not finite")),
        other => panic!("{what} must be a number, got {other:?}"),
    }
}

fn parse_predict(body: &str) -> PredictReply {
    let doc = json::parse(body).expect("response body is valid JSON");
    let array_of = |key: &str| {
        doc.get(key)
            .and_then(json::Json::as_array)
            .unwrap_or_else(|| panic!("response carries an array {key:?}"))
    };
    let predictions = array_of("predictions")
        .iter()
        .map(|row| match row {
            json::Json::Null => None,
            json::Json::Arr(cells) => Some(
                cells
                    .iter()
                    .map(|cell| num_of(Some(cell), "probability"))
                    .collect(),
            ),
            other => panic!("prediction row must be an array or null, got {other:?}"),
        })
        .collect();
    let uncertainty = array_of("uncertainty")
        .iter()
        .map(|row| match row {
            json::Json::Null => None,
            obj @ json::Json::Obj(_) => Some((
                num_of(obj.get("entropy"), "entropy"),
                num_of(obj.get("margin"), "margin"),
            )),
            other => panic!("uncertainty must be an object or null, got {other:?}"),
        })
        .collect();
    let abstained = array_of("abstained")
        .iter()
        .map(|row| match row {
            json::Json::Bool(b) => *b,
            other => panic!("abstained must be a bool, got {other:?}"),
        })
        .collect();
    PredictReply {
        predictions,
        uncertainty,
        abstained,
    }
}

/// The median direct margin over `rows` — a threshold guaranteed to
/// split the holdout into abstained and answered rows.
fn median_margin(direct: &Matrix<f32>, rows: usize) -> f32 {
    let mut margins: Vec<f32> = (0..rows).map(|r| margin(direct.row(r))).collect();
    margins.sort_by(f32::total_cmp);
    margins[rows / 2]
}

/// Assert one front's predict reply against the direct call, row by row:
/// the abstention verdict is exactly `margin < threshold` on the direct
/// probabilities, live rows are bit-identical (probabilities, entropy,
/// margin), abstained rows are `null` throughout.
fn assert_reply_matches_direct(reply: &PredictReply, direct: &Matrix<f32>, threshold: f32) {
    let rows = reply.abstained.len();
    assert_eq!(reply.predictions.len(), rows);
    assert_eq!(reply.uncertainty.len(), rows);
    let mut abstained_rows = 0usize;
    for r in 0..rows {
        let should_abstain = margin(direct.row(r)) < threshold;
        assert_eq!(
            reply.abstained[r], should_abstain,
            "row {r}: the abstention verdict must be recomputable from the direct margins"
        );
        if should_abstain {
            abstained_rows += 1;
            assert!(
                reply.predictions[r].is_none(),
                "row {r}: abstained rows carry a null prediction"
            );
            assert!(
                reply.uncertainty[r].is_none(),
                "row {r}: abstained rows carry null uncertainty"
            );
            continue;
        }
        let proba = reply.predictions[r]
            .as_ref()
            .unwrap_or_else(|| panic!("row {r}: answered rows carry probabilities"));
        assert_eq!(proba.len(), direct.cols());
        for c in 0..direct.cols() {
            assert_eq!(
                proba[c].to_bits(),
                direct.get(r, c).to_bits(),
                "row {r} col {c}: probabilities must be bit-identical"
            );
        }
        let (got_entropy, got_margin) = reply.uncertainty[r]
            .unwrap_or_else(|| panic!("row {r}: answered rows carry uncertainty"));
        assert_eq!(
            got_entropy.to_bits(),
            entropy(direct.row(r)).to_bits(),
            "row {r}: entropy must be bit-identical to the shared kernel"
        );
        assert_eq!(
            got_margin.to_bits(),
            margin(direct.row(r)).to_bits(),
            "row {r}: margin must be bit-identical to the shared kernel"
        );
    }
    assert!(
        abstained_rows > 0 && abstained_rows < rows,
        "the median threshold must split the holdout, abstained {abstained_rows}/{rows}"
    );
}

fn uncertainty_and_abstention_match_direct_bitwise(front: Front) {
    const ROWS: usize = 20;
    let (pipeline, data) = tiny_pipeline(80, BackendKind::Naive);
    let direct = pipeline.predict_proba(&data.features).unwrap();
    let threshold = median_margin(&direct, ROWS);
    let stack = front.start(FrontConfig::default(), None, &|registry| {
        registry.publish(ServedModel::new("higgs", 1, pipeline.clone()));
    });

    // With a threshold: the verdict, the survivors' probabilities, and
    // the uncertainty numbers all match the direct call bit for bit. The
    // header carries the threshold as a shortest-round-trip decimal (and
    // the interior protocol as a raw f32), so the serving stack compares
    // the very same f32 this test does.
    let response = client::request(
        stack.addr(),
        "POST",
        "/v1/models/higgs/predict",
        &[("X-Abstain-Below", &threshold.to_string())],
        rows_body(&data, 0..ROWS).as_bytes(),
    )
    .expect("predict request round-trips");
    assert_eq!(response.status, 200, "body: {}", response.body_str());
    assert_reply_matches_direct(&parse_predict(&response.body_str()), &direct, threshold);

    // Without the header nothing abstains, and uncertainty still rides
    // along bit-exactly for every row — on the cluster front recomputed
    // from the wire's raw f32 rows.
    let response = client::request(
        stack.addr(),
        "POST",
        "/v1/models/higgs/predict",
        &[],
        rows_body(&data, 0..ROWS).as_bytes(),
    )
    .unwrap();
    assert_eq!(response.status, 200, "body: {}", response.body_str());
    let reply = parse_predict(&response.body_str());
    assert_eq!(reply.abstained, vec![false; ROWS]);
    for r in 0..ROWS {
        let (got_entropy, got_margin) = reply.uncertainty[r].expect("live rows carry uncertainty");
        assert_eq!(got_entropy.to_bits(), entropy(direct.row(r)).to_bits());
        assert_eq!(got_margin.to_bits(), margin(direct.row(r)).to_bits());
    }
}

#[test]
fn gateway_uncertainty_and_abstention_match_direct_bitwise() {
    uncertainty_and_abstention_match_direct_bitwise(Front::Gateway);
}

#[test]
fn cluster_front_carries_uncertainty_and_abstention_bitwise() {
    uncertainty_and_abstention_match_direct_bitwise(Front::Cluster);
}
