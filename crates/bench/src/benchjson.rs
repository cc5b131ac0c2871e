//! Machine-readable benchmark reports and baseline comparison.
//!
//! The vendored criterion shim appends one JSON line per benchmark to the
//! file named by `BENCH_JSON` (see `shims/criterion`). This module turns
//! that JSONL stream into a canonical report
//! (`{"schema":"bcpnn-bench/v1","benches":{...}}`), diffs it against a
//! committed baseline with a percentage threshold, renders the diff as a
//! GitHub-flavoured markdown table, and checks *relative* speed claims
//! ("int8 must beat f32") that hold on any machine even though
//! absolute nanoseconds do not.
//!
//! The `bench_compare` binary is the CLI over these functions; the CI
//! `bench-regression` job is its only non-human caller. Parsing reuses
//! [`bcpnn_gateway::json`] — the same RFC 8259 implementation the serving
//! stack trusts on its wire.
//!
//! Besides per-bench records, a report may carry *metadata* about the run —
//! the detected CPU feature set and active SIMD dispatch tier, emitted by
//! the bench binary as a `{"meta":{...}}` JSONL line. Metadata rides along
//! into the canonical report and the markdown summary so a baseline states
//! which machine class produced it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bcpnn_gateway::json::{self, Json, Number};

/// Schema tag of the canonical report format.
pub const SCHEMA: &str = "bcpnn-bench/v1";

/// Run-level metadata attached to a report (string key/value pairs, e.g.
/// `cpu_features` and `simd_tier`).
pub type BenchMeta = BTreeMap<String, String>;

/// One measured benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Full benchmark name (`group/function` as printed by the harness).
    pub name: String,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Derived throughput, when the bench declared `Throughput::Elements`
    /// (rows/sec for the serving benches).
    pub elems_per_sec: Option<f64>,
}

/// Outcome of one benchmark's baseline comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareStatus {
    /// Within the threshold (or faster).
    Ok,
    /// Slower than baseline by more than the threshold.
    Regression,
    /// Present now, absent from the baseline (informational).
    New,
    /// In the baseline but not measured now — a silently dropped bench is
    /// treated as a failure, otherwise deleting a bench "fixes" CI.
    Missing,
}

/// One row of a baseline comparison.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Benchmark name.
    pub name: String,
    /// Baseline ns/iter, when the baseline has this bench.
    pub baseline_ns: Option<f64>,
    /// Current ns/iter, when this run measured the bench.
    pub current_ns: Option<f64>,
    /// Signed percent change vs baseline (positive = slower).
    pub delta_pct: Option<f64>,
    /// Classification under the threshold.
    pub status: CompareStatus,
}

/// A full baseline comparison.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Per-bench rows, sorted by name.
    pub rows: Vec<CompareRow>,
    /// The threshold the rows were classified under (percent).
    pub threshold_pct: f64,
}

impl CompareReport {
    /// Names of benches classified as failures (regressed or missing).
    pub fn failures(&self) -> Vec<&CompareRow> {
        self.rows
            .iter()
            .filter(|r| matches!(r.status, CompareStatus::Regression | CompareStatus::Missing))
            .collect()
    }
}

/// Parse a report in either accepted syntax — the shim's JSONL stream or a
/// canonical `bcpnn-bench/v1` object — into name-sorted records. Duplicate
/// names keep the *last* occurrence (a re-run bench supersedes its earlier
/// sample). Convenience wrapper over [`parse_report_full`] that drops the
/// metadata.
pub fn parse_report(text: &str) -> Result<Vec<BenchRecord>, String> {
    parse_report_full(text).map(|(records, _)| records)
}

/// [`parse_report`] plus the run metadata. In the JSONL syntax a metadata
/// line is `{"meta":{"key":"value",...}}` (no `"name"` field); several such
/// lines merge, later keys overriding earlier ones. In the canonical syntax
/// metadata lives under a top-level `"meta"` object.
pub fn parse_report_full(text: &str) -> Result<(Vec<BenchRecord>, BenchMeta), String> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err("empty benchmark report".into());
    }
    let mut by_name: BTreeMap<String, BenchRecord> = BTreeMap::new();
    let mut meta = BenchMeta::new();
    let canonical = json::parse(trimmed)
        .ok()
        .filter(|v| v.get("schema").is_some());
    if let Some(doc) = canonical {
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or_default();
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?}, expected {SCHEMA:?}"
            ));
        }
        merge_meta(&mut meta, &doc)?;
        let benches = match doc.get("benches") {
            Some(Json::Obj(members)) => members,
            _ => return Err("canonical report has no \"benches\" object".into()),
        };
        for (name, value) in benches {
            by_name.insert(name.clone(), record_from_obj(name, value)?);
        }
    } else {
        for (i, line) in trimmed.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let value =
                json::parse(line).map_err(|e| format!("line {}: not a JSON record: {e}", i + 1))?;
            if value.get("name").is_none() && value.get("meta").is_some() {
                merge_meta(&mut meta, &value).map_err(|e| format!("line {}: {e}", i + 1))?;
                continue;
            }
            let name = value
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: record has no \"name\"", i + 1))?
                .to_string();
            let record = record_from_obj(&name, &value)?;
            by_name.insert(name, record);
        }
    }
    Ok((by_name.into_values().collect(), meta))
}

/// Fold the `"meta"` object of `doc` (if any) into `meta`; non-string
/// values are an error so a typo'd metadata line fails loudly.
fn merge_meta(meta: &mut BenchMeta, doc: &Json) -> Result<(), String> {
    let Some(obj) = doc.get("meta") else {
        return Ok(());
    };
    let members = match obj {
        Json::Obj(members) => members,
        _ => return Err("\"meta\" is not an object".into()),
    };
    for (key, value) in members {
        let s = value
            .as_str()
            .ok_or_else(|| format!("meta key {key:?} has a non-string value"))?;
        meta.insert(key.clone(), s.to_string());
    }
    Ok(())
}

fn record_from_obj(name: &str, value: &Json) -> Result<BenchRecord, String> {
    let ns = value
        .get("ns_per_iter")
        .and_then(as_f64)
        .ok_or_else(|| format!("bench {name:?}: missing numeric \"ns_per_iter\""))?;
    if !(ns.is_finite() && ns > 0.0) {
        return Err(format!("bench {name:?}: ns_per_iter {ns} is not positive"));
    }
    Ok(BenchRecord {
        name: name.to_string(),
        ns_per_iter: ns,
        elems_per_sec: value.get("elems_per_sec").and_then(as_f64),
    })
}

fn as_f64(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) => n.as_f64(),
        _ => None,
    }
}

/// Render records as the canonical, committed report format: schema-tagged,
/// name-sorted, one bench per line — diffs of the baseline file stay
/// readable in review.
pub fn canonical_report(records: &[BenchRecord]) -> String {
    canonical_report_with_meta(records, &BenchMeta::new())
}

/// [`canonical_report`] with run metadata included as a top-level `"meta"`
/// object (omitted when empty).
pub fn canonical_report_with_meta(records: &[BenchRecord], meta: &BenchMeta) -> String {
    let mut sorted: Vec<&BenchRecord> = records.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    if !meta.is_empty() {
        let obj: Vec<(String, Json)> = meta
            .iter()
            .map(|(k, v)| (k.clone(), Json::str(v)))
            .collect();
        let _ = writeln!(out, "  \"meta\": {},", Json::Obj(obj).render());
    }
    out.push_str("  \"benches\": {\n");
    for (i, r) in sorted.iter().enumerate() {
        let mut obj = vec![(
            "ns_per_iter".to_string(),
            Json::Num(Number::from_f64(r.ns_per_iter).expect("finite")),
        )];
        if let Some(eps) = r.elems_per_sec.and_then(Number::from_f64) {
            obj.push(("elems_per_sec".to_string(), Json::Num(eps)));
        }
        let comma = if i + 1 < sorted.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {}: {}{comma}",
            Json::str(&r.name).render(),
            Json::Obj(obj).render()
        );
    }
    out.push_str("  }\n}\n");
    out
}

/// Diff `current` against `baseline`: a bench is a regression when its
/// ns/iter exceeds the baseline by more than `threshold_pct` percent, and a
/// failure when it vanished from the run entirely.
pub fn compare(
    current: &[BenchRecord],
    baseline: &[BenchRecord],
    threshold_pct: f64,
) -> CompareReport {
    let cur: BTreeMap<&str, &BenchRecord> = current.iter().map(|r| (r.name.as_str(), r)).collect();
    let base: BTreeMap<&str, &BenchRecord> =
        baseline.iter().map(|r| (r.name.as_str(), r)).collect();
    let mut names: Vec<&str> = cur.keys().chain(base.keys()).copied().collect();
    names.sort_unstable();
    names.dedup();
    let rows = names
        .into_iter()
        .map(|name| {
            let c = cur.get(name).map(|r| r.ns_per_iter);
            let b = base.get(name).map(|r| r.ns_per_iter);
            let (delta_pct, status) = match (b, c) {
                (Some(b), Some(c)) => {
                    let delta = (c - b) / b * 100.0;
                    let status = if delta > threshold_pct {
                        CompareStatus::Regression
                    } else {
                        CompareStatus::Ok
                    };
                    (Some(delta), status)
                }
                (None, Some(_)) => (None, CompareStatus::New),
                (Some(_), None) => (None, CompareStatus::Missing),
                (None, None) => unreachable!("name came from one of the maps"),
            };
            CompareRow {
                name: name.to_string(),
                baseline_ns: b,
                current_ns: c,
                delta_pct,
                status,
            }
        })
        .collect();
    CompareReport {
        rows,
        threshold_pct,
    }
}

/// Render a comparison as a GitHub-flavoured markdown table (the CI job
/// appends this to `$GITHUB_STEP_SUMMARY`).
pub fn markdown_table(report: &CompareReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### Benchmark comparison (threshold {:.0}%)\n",
        report.threshold_pct
    );
    out.push_str("| benchmark | baseline ns/iter | current ns/iter | delta | status |\n");
    out.push_str("|---|---:|---:|---:|---|\n");
    for row in &report.rows {
        let fmt_ns = |v: Option<f64>| v.map_or("—".to_string(), |ns| format!("{ns:.1}"));
        let delta = row
            .delta_pct
            .map_or("—".to_string(), |d| format!("{d:+.1}%"));
        let status = match row.status {
            CompareStatus::Ok => "ok",
            CompareStatus::Regression => "**regression**",
            CompareStatus::New => "new",
            CompareStatus::Missing => "**missing**",
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {delta} | {status} |",
            row.name,
            fmt_ns(row.baseline_ns),
            fmt_ns(row.current_ns)
        );
    }
    out
}

/// Check a machine-independent relative claim of the form `"fast<slow"`:
/// bench `fast` must take strictly fewer ns/iter than bench `slow`. Returns
/// the speedup factor (`slow/fast`, > 1.0) on success.
pub fn assert_faster(records: &[BenchRecord], claim: &str) -> Result<f64, String> {
    let (fast, slow) = claim
        .split_once('<')
        .ok_or_else(|| format!("claim {claim:?} is not of the form \"fast<slow\""))?;
    let lookup = |name: &str| -> Result<f64, String> {
        records
            .iter()
            .find(|r| r.name == name.trim())
            .map(|r| r.ns_per_iter)
            .ok_or_else(|| format!("claim {claim:?}: bench {:?} not in report", name.trim()))
    };
    let fast_ns = lookup(fast)?;
    let slow_ns = lookup(slow)?;
    if fast_ns < slow_ns {
        Ok(slow_ns / fast_ns)
    } else {
        Err(format!(
            "claim {claim:?} failed: {} = {fast_ns:.1} ns/iter is not faster than {} = {slow_ns:.1} ns/iter",
            fast.trim(),
            slow.trim()
        ))
    }
}

/// Schema tag of a perf-history file (`BENCH_<n>.json` at the repository
/// root): the end-to-end benchmark's parent/change pairs behind one
/// change's claim.
pub const HISTORY_SCHEMA: &str = "bcpnn-perf-history/v1";

/// One end-to-end metric of one workload in a perf-history file: the
/// parent's and the change's first quartile, median and third quartile
/// over the pairs, and how many pairs the change won.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryMetric {
    /// Metric name, as `BENCHMARK.json` spells it.
    pub name: String,
    /// Parent `[q1, median, q3]`.
    pub parent: [f64; 3],
    /// Change `[q1, median, q3]`.
    pub change: [f64; 3],
    /// Pairs in which the change read better.
    pub better_pairs: u64,
}

/// One workload of a perf-history file.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryWorkload {
    /// Workload name, as `BENCHMARK.json` spells it.
    pub name: String,
    /// The benchmark seed of each pair.
    pub seeds: Vec<u64>,
    /// The summarised metrics.
    pub metrics: Vec<HistoryMetric>,
}

/// Parse a perf-history file:
///
/// ```json
/// {"schema": "bcpnn-perf-history/v1",
///  "workloads": {"score_offline": {
///     "seeds": [3101, 3102],
///     "pairs": [{"seed": 3101, "first": "parent",
///                "parent": {"latency_p50_ms": 0.9}, "change": {"latency_p50_ms": 0.6}}],
///     "metrics": {"latency_p50_ms": {"parent": [0.85, 0.9, 0.95],
///                                    "change": [0.58, 0.6, 0.62], "better_pairs": 2}}}}}
/// ```
///
/// Other top-level keys (the host regime, the change's description) are
/// free-form. Checked: the schema tag; every quartile triple is finite and
/// ordered; `better_pairs` is at most the seed count; each pair names a
/// listed seed and only summarised metrics.
pub fn parse_history(text: &str) -> Result<Vec<HistoryWorkload>, String> {
    let doc = json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(HISTORY_SCHEMA) {
        return Err(format!("schema {schema:?}, expected {HISTORY_SCHEMA:?}"));
    }
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err("no \"workloads\" object".into());
    };
    workloads
        .iter()
        .map(|(name, w)| history_workload(name, w).map_err(|e| format!("workload {name:?}: {e}")))
        .collect()
}

fn history_workload(name: &str, w: &Json) -> Result<HistoryWorkload, String> {
    let seeds = w
        .get("seeds")
        .and_then(Json::as_array)
        .ok_or("no \"seeds\" array")?
        .iter()
        .map(|s| s.as_u64().ok_or("a seed is not an unsigned integer"))
        .collect::<Result<Vec<u64>, _>>()?;
    let Some(Json::Obj(members)) = w.get("metrics") else {
        return Err("no \"metrics\" object".into());
    };
    let mut metrics = Vec::with_capacity(members.len());
    for (metric, m) in members {
        let quartiles = |side: &str| -> Result<[f64; 3], String> {
            let q: Vec<f64> = m
                .get(side)
                .and_then(Json::as_array)
                .map(|q| q.iter().filter_map(as_f64).collect())
                .unwrap_or_default();
            match q[..] {
                [q1, med, q3] if q1.is_finite() && q3.is_finite() && q1 <= med && med <= q3 => {
                    Ok([q1, med, q3])
                }
                _ => Err(format!(
                    "{metric}: {side} is not an ordered [q1, median, q3]"
                )),
            }
        };
        let better_pairs = m
            .get("better_pairs")
            .and_then(Json::as_u64)
            .filter(|&n| n <= seeds.len() as u64)
            .ok_or_else(|| format!("{metric}: better_pairs missing or above the seed count"))?;
        metrics.push(HistoryMetric {
            name: metric.clone(),
            parent: quartiles("parent")?,
            change: quartiles("change")?,
            better_pairs,
        });
    }
    for pair in w.get("pairs").and_then(Json::as_array).unwrap_or_default() {
        if !pair
            .get("seed")
            .and_then(Json::as_u64)
            .is_some_and(|s| seeds.contains(&s))
        {
            return Err("a pair's seed is not among the seeds".into());
        }
        for side in ["parent", "change"] {
            let Some(Json::Obj(values)) = pair.get(side) else {
                return Err(format!("a pair has no {side:?} object"));
            };
            if let Some((unknown, _)) = values
                .iter()
                .find(|(k, _)| !metrics.iter().any(|m| &m.name == k))
            {
                return Err(format!(
                    "a pair reports {unknown:?}, which is not summarised"
                ));
            }
        }
    }
    Ok(HistoryWorkload {
        name: name.to_string(),
        seeds,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, ns: f64) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            ns_per_iter: ns,
            elems_per_sec: None,
        }
    }

    #[test]
    fn parses_shim_jsonl() {
        let text = "\
{\"name\":\"g/naive\",\"ns_per_iter\":200.000,\"elems_per_sec\":1250000.000}\n\
{\"name\":\"g/vectorized\",\"ns_per_iter\":100.000}\n\
{\"name\":\"g/naive\",\"ns_per_iter\":190.000}\n";
        let records = parse_report(text).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "g/naive");
        assert_eq!(records[0].ns_per_iter, 190.0, "last duplicate wins");
        assert_eq!(records[0].elems_per_sec, None);
        assert_eq!(records[1].name, "g/vectorized");
    }

    #[test]
    fn canonical_report_roundtrips() {
        let records = vec![
            BenchRecord {
                name: "b/two".into(),
                ns_per_iter: 1234.5,
                elems_per_sec: Some(2.5e6),
            },
            rec("a/one", 10.0),
        ];
        let text = canonical_report(&records);
        assert!(text.contains("\"schema\": \"bcpnn-bench/v1\""));
        let parsed = parse_report(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "a/one", "canonical order is sorted");
        assert_eq!(parsed[1].ns_per_iter, 1234.5);
        assert_eq!(parsed[1].elems_per_sec, Some(2.5e6));
    }

    #[test]
    fn meta_lines_parse_and_roundtrip() {
        let text = "\
{\"meta\":{\"cpu_features\":\"avx2 fma\",\"simd_tier\":\"avx2\"}}\n\
{\"name\":\"g/naive\",\"ns_per_iter\":200.000}\n\
{\"meta\":{\"simd_tier\":\"lanes\"}}\n";
        let (records, meta) = parse_report_full(text).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(meta["cpu_features"], "avx2 fma");
        assert_eq!(meta["simd_tier"], "lanes", "later meta lines override");

        let canonical = canonical_report_with_meta(&records, &meta);
        assert!(canonical.contains("\"meta\""));
        let (reparsed, remeta) = parse_report_full(&canonical).unwrap();
        assert_eq!(reparsed, records);
        assert_eq!(remeta, meta);

        // Meta is optional: a meta-free canonical report yields empty meta.
        let (_, empty) = parse_report_full(&canonical_report(&records)).unwrap();
        assert!(empty.is_empty());
        // Non-string meta values fail loudly.
        assert!(
            parse_report_full("{\"meta\":{\"k\":1}}\n{\"name\":\"g\",\"ns_per_iter\":1}").is_err()
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_report("").is_err());
        assert!(parse_report("not json").is_err());
        assert!(parse_report("{\"name\":\"x\"}").is_err(), "no ns_per_iter");
        assert!(parse_report("{\"name\":\"x\",\"ns_per_iter\":-4}").is_err());
        assert!(
            parse_report("{\"schema\":\"bcpnn-bench/v9\",\"benches\":{}}").is_err(),
            "unknown schema version"
        );
    }

    #[test]
    fn compare_classifies_every_status() {
        let baseline = vec![
            rec("stable", 100.0),
            rec("regressed", 100.0),
            rec("gone", 5.0),
        ];
        let current = vec![
            rec("stable", 110.0),
            rec("regressed", 161.0),
            rec("fresh", 7.0),
        ];
        let report = compare(&current, &baseline, 50.0);
        let status: BTreeMap<&str, CompareStatus> = report
            .rows
            .iter()
            .map(|r| (r.name.as_str(), r.status))
            .collect();
        assert_eq!(status["stable"], CompareStatus::Ok);
        assert_eq!(status["regressed"], CompareStatus::Regression);
        assert_eq!(status["gone"], CompareStatus::Missing);
        assert_eq!(status["fresh"], CompareStatus::New);
        assert_eq!(report.failures().len(), 2);
        let table = markdown_table(&report);
        assert!(table.contains("| regressed | 100.0 | 161.0 | +61.0% | **regression** |"));
        assert!(table.contains("| gone | 5.0 | — | — | **missing** |"));
    }

    #[test]
    fn assert_faster_checks_relative_order() {
        let records = vec![rec("g/vectorized", 50.0), rec("g/naive", 150.0)];
        let speedup = assert_faster(&records, "g/vectorized<g/naive").unwrap();
        assert!((speedup - 3.0).abs() < 1e-12);
        assert!(assert_faster(&records, "g/naive<g/vectorized").is_err());
        assert!(assert_faster(&records, "g/vectorized<g/absent").is_err());
        assert!(assert_faster(&records, "no-separator").is_err());
    }

    #[test]
    fn history_checks_quartiles_seeds_and_names() {
        let good = r#"{"schema":"bcpnn-perf-history/v1","host":{"nproc":2},
            "workloads":{"w":{"seeds":[1,2],
              "pairs":[{"seed":1,"first":"parent","parent":{"m":1.0},"change":{"m":0.5}}],
              "metrics":{"m":{"parent":[0.9,1.0,1.1],"change":[0.4,0.5,0.6],"better_pairs":2}}}}}"#;
        let parsed = parse_history(good).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "w");
        assert_eq!(parsed[0].seeds, [1, 2]);
        assert_eq!(parsed[0].metrics[0].change, [0.4, 0.5, 0.6]);
        assert_eq!(parsed[0].metrics[0].better_pairs, 2);
        for bad in [
            good.replace("perf-history/v1", "perf-history/v2"),
            good.replace("[0.9,1.0,1.1]", "[1.1,1.0,0.9]"),
            good.replace("\"better_pairs\":2", "\"better_pairs\":3"),
            good.replace("\"seed\":1", "\"seed\":7"),
            good.replace("\"change\":{\"m\":0.5}", "\"change\":{\"n\":0.5}"),
        ] {
            assert!(parse_history(&bad).is_err(), "accepted {bad}");
        }
    }
}
