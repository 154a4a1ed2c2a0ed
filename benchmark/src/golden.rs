//! The correctness gate run before any timing: golden answers by direct
//! library call, and the paper's guarantees against the exact baseline.
//!
//! Sixteen requests spread over the list are answered in this process by
//! `run_query` over a heap copy of the whole dataset. The repository's
//! own invariant is that heap, paged and cluster answers are byte-
//! identical, so whatever topology the workload serves through, each of
//! those requests must come back with exactly these bytes. For eight of
//! them (top-k and filter shapes) the answer is also checked against
//! `swope_baselines::exact` for Definition 5 / Definition 6.

use std::sync::Arc;

use swope_baselines::{exact_entropy_scores, exact_mi_scores};
use swope_bench::metrics::{definition5_condition2, definition6_compliant};
use swope_columnar::{Dataset, PageCache};
use swope_core::{Executor, NoopObserver};
use swope_obs::json::Json;
use swope_server::http::{self, ParseStatus};
use swope_server::query::{parse_spec, run_query, QueryShape, QuerySpec};
use swope_server::{DatasetEntry, DatasetRegistry};

use crate::client::digest;
use crate::workload::{Request, Workload};

/// Requests answered by direct library call per run.
const GOLDENS: usize = 16;
/// Of those, how many are also checked against the exact baseline.
const DEFINITION_CHECKS: usize = 8;
/// The servers' support cap (`ServerConfig::default().max_support`).
const MAX_SUPPORT: u32 = 1000;

/// The server's HTTP parse of a request's wire bytes.
pub fn parse_http(request: &Request) -> Result<http::Request, String> {
    match http::parse_request(&request.wire, 1 << 20) {
        Ok(ParseStatus::Complete { request, .. }) => Ok(request),
        Ok(ParseStatus::Incomplete) => Err(format!("{}: incomplete HTTP request", request.target)),
        Err(e) => Err(format!("{}: {e}", request.target)),
    }
}

/// The server's query-spec parse of an already parsed request.
pub fn parse_query(parsed: &http::Request) -> Result<QuerySpec, String> {
    let segment = parsed
        .path
        .strip_prefix("/query/")
        .ok_or_else(|| format!("{}: not a query endpoint", parsed.path))?;
    parse_spec(segment, parsed).map_err(|e| format!("{}: {e}", parsed.path))
}

/// Both parses: wire bytes to query spec.
pub fn parse_wire(request: &Request) -> Result<QuerySpec, String> {
    parse_query(&parse_http(request)?)
}

/// Loads the whole dataset onto the heap the way a single-box server
/// does; its entry has generation 1, like every server's first dataset.
pub fn load_heap(snapshot: &str) -> Result<Arc<DatasetEntry>, String> {
    DatasetRegistry::new(MAX_SUPPORT).load_path(snapshot)
}

/// Opens the snapshot out-of-core through `cache`, the way a server
/// started with `--mmap` does.
pub fn load_paged(snapshot: &str, cache: &Arc<PageCache>) -> Result<Arc<DatasetEntry>, String> {
    DatasetRegistry::new(MAX_SUPPORT).load_path_paged(snapshot, cache)
}

/// What the gate established.
pub struct Goldens {
    /// `(request index, body digest)` of every golden answer.
    pub digests: Vec<(usize, u64)>,
    /// Answers checked against the exact baseline.
    pub definitions_checked: usize,
    /// Guarantee violations, one line each.
    pub violations: Vec<String>,
}

/// Computes the goldens for `workload` from the snapshot at `snapshot`.
pub fn compute(workload: &Workload, snapshot: &str) -> Result<Goldens, String> {
    let entry = load_heap(snapshot)?;
    let len = workload.requests.len();
    let mut goldens =
        Goldens { digests: Vec::new(), definitions_checked: 0, violations: Vec::new() };
    // Exact entropies of the whole dataset, computed at most once.
    let mut whole_entropies: Option<Vec<f64>> = None;
    for slot in 0..GOLDENS.min(len) {
        let index = slot * len / GOLDENS.min(len);
        let request = &workload.requests[index];
        let spec = parse_wire(request)?;
        let body = run_query(&entry, &spec, &Executor::sequential(), &mut NoopObserver).map_err(
            |(status, msg)| format!("{}: library answered {status} {msg}", request.target),
        )?;
        goldens.digests.push((index, digest(body.as_bytes())));
        let checkable =
            !matches!(spec.shape, QueryShape::EntropyProfile | QueryShape::MiProfile { .. });
        if checkable && goldens.definitions_checked < DEFINITION_CHECKS {
            goldens.definitions_checked += 1;
            if let Err(why) = check_definition(&entry.dataset, &spec, &body, &mut whole_entropies) {
                goldens.violations.push(format!("{}: {why}", request.target));
            }
        }
    }
    Ok(goldens)
}

/// The rows a spec's scope selects, or `None` for the whole dataset.
/// Lists only ever name attributes by index and values by code.
fn scoped_rows(ds: &Dataset, spec: &QuerySpec) -> Result<Option<Vec<usize>>, String> {
    if !spec.is_scoped() {
        return Ok(None);
    }
    let start = spec.row_start.unwrap_or(0);
    let end = spec.row_end.unwrap_or(ds.num_rows()).min(ds.num_rows());
    let predicate = match &spec.where_clause {
        None => None,
        Some(clause) => {
            let parsed =
                clause.split_once('=').and_then(|(a, c)| Some((a.parse().ok()?, c.parse().ok()?)));
            let (attr, code): (usize, u32) =
                parsed.ok_or_else(|| format!("where clause {clause:?} is not index=code"))?;
            Some((attr, code))
        }
    };
    let rows = (start..end)
        .filter(|&r| predicate.is_none_or(|(attr, code)| ds.column(attr).code(r) == code))
        .collect();
    Ok(Some(rows))
}

/// Checks one served body against the exact scores of its population.
fn check_definition(
    ds: &Dataset,
    spec: &QuerySpec,
    body: &str,
    whole_entropies: &mut Option<Vec<f64>>,
) -> Result<(), String> {
    let json = Json::parse(body)?;
    let returned: Vec<(usize, f64)> = json
        .get("scores")
        .and_then(Json::as_array)
        .ok_or("body has no scores array")?
        .iter()
        .map(|s| {
            let attr = s.get("attr").and_then(Json::as_u64).ok_or("score without attr")?;
            let estimate =
                s.get("estimate").and_then(Json::as_f64).ok_or("score without estimate")?;
            Ok((attr as usize, estimate))
        })
        .collect::<Result<_, String>>()?;
    let target = json.get("target").and_then(|t| t.get("attr")).and_then(Json::as_u64);

    let subset = scoped_rows(ds, spec)?.map(|rows| ds.take_rows(&rows));
    let population = subset.as_ref().unwrap_or(ds);
    let exact: Vec<f64> = match (target, subset.is_some()) {
        (Some(t), _) => exact_mi_scores(population, t as usize),
        (None, true) => exact_entropy_scores(population),
        (None, false) => whole_entropies.get_or_insert_with(|| exact_entropy_scores(ds)).clone(),
    };
    // MI candidates exclude the target itself.
    let candidates: Vec<usize> = (0..exact.len()).filter(|&a| Some(a as u64) != target).collect();
    let epsilon = spec.epsilon;
    let attrs: Vec<usize> = returned.iter().map(|&(a, _)| a).collect();
    match &spec.shape {
        QueryShape::EntropyTopK { k } | QueryShape::MiTopK { k, .. } => {
            if attrs.len() != *k {
                return Err(format!("top-{k} returned {} attributes", attrs.len()));
            }
            for &(attr, estimate) in &returned {
                if estimate < (1.0 - epsilon) * exact[attr] - 1e-9 {
                    return Err(format!(
                        "Def. 5(i): attr {attr} estimate {estimate} < (1-ε)·{}",
                        exact[attr]
                    ));
                }
            }
            let mut best: Vec<f64> = candidates.iter().map(|&a| exact[a]).collect();
            best.sort_by(|a, b| b.total_cmp(a));
            if !definition5_condition2(&attrs, &best, |a| exact[a], epsilon) {
                return Err(format!("Def. 5(ii): {attrs:?} vs exact best {:?}", &best[..*k]));
            }
        }
        QueryShape::EntropyFilter { eta } | QueryShape::MiFilter { eta, .. } => {
            let scores: Vec<(usize, f64)> = candidates.iter().map(|&a| (a, exact[a])).collect();
            if !definition6_compliant(&attrs, &scores, *eta, epsilon) {
                return Err(format!("Def. 6 at η={eta}: returned {attrs:?}"));
            }
        }
        QueryShape::EntropyProfile | QueryShape::MiProfile { .. } => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build, Sizes};

    #[test]
    fn every_generated_request_parses_like_the_server_would() {
        for name in crate::workload::NAMES {
            let w = build(name, 11, &Sizes::QUICK).unwrap();
            for r in &w.requests {
                let spec = parse_wire(r).unwrap();
                assert_eq!(spec.dataset, w.dataset, "{}", r.target);
                assert_eq!(spec.threads, 1);
                assert!(spec.seed.is_some(), "{}: every request pins its sampling seed", r.target);
            }
        }
    }
}
