//! Batched mutual-information top-k: many targets, one shared sample.
//!
//! The paper's MI evaluation protocol runs the top-k query against many
//! target attributes of the same dataset (20 per dataset in §6.1). Run
//! separately, each query pays to (re)sample and to (re)count every
//! candidate's *marginal* distribution. [`mi_top_k_batch`] amortizes
//! both across targets:
//!
//! * one growing permutation prefix serves every target;
//! * per-attribute marginal entropy counters are shared (`h` counters
//!   total instead of `|T|·h`);
//! * only the joint counters are per `(target, candidate)` pair, and a
//!   target stops updating its joints as soon as its own stopping rule
//!   fires.
//!
//! Each target's answer individually satisfies Definition 5 with
//! probability `1 − p_f` — the failure budget is per target, identical
//! to running [`crate::mi_top_k`] alone, because the bounds are applied
//! to the same (attribute, iteration) grid either way.

use std::time::Instant;

use swope_columnar::{AttrIndex, Code, ColumnStorage, Dataset};
use swope_estimate::bounds::{lambda, mi_bounds, MiBounds};
use swope_estimate::entropy::EntropyCounter;
use swope_estimate::joint::JointEntropyCounter;
use swope_obs::{AttrBounds, NoopObserver, Phase, QueryKind, QueryMeta, QueryObserver, RunStats};
use swope_sampling::DoublingSchedule;

use crate::exec::Executor;
use crate::report::{AttrScore, QueryStats, TopKResult, WorkKind};
use crate::state::{make_sampler, INGEST_BLOCK_ROWS};
use crate::{SwopeConfig, SwopeError};

/// One target's in-flight state.
struct TargetQuery {
    target: AttrIndex,
    /// Joint counters, one per live candidate, parallel to `candidates`.
    joints: Vec<JointEntropyCounter>,
    /// Live candidate attribute indices.
    candidates: Vec<AttrIndex>,
    /// Current bounds, parallel to `candidates`.
    bounds: Vec<MiBounds>,
    /// Set when the stopping rule fires.
    result: Option<TopKResult>,
    stats: QueryStats,
    /// Retirement events staged inside the parallel per-target pass and
    /// drained (serially) to the observer afterwards. Only filled when an
    /// observer is attached.
    retired_log: Vec<(AttrIndex, f64, f64)>,
}

/// Runs the approximate MI top-k query (Algorithm 3) for every target in
/// `targets` over a single shared sample.
///
/// Returns one [`TopKResult`] per target, in input order. Each result
/// equals in contract (not necessarily bit-for-bit, since pruning order
/// differs) what [`crate::mi_top_k`] would return: an approximate top-k
/// per Definition 5 with probability `1 − p_f`.
///
/// # Errors
///
/// Validation mirrors [`crate::mi_top_k`], applied per target; duplicate
/// targets are allowed (the duplicate work is still shared).
pub fn mi_top_k_batch(
    dataset: &Dataset,
    targets: &[AttrIndex],
    k: usize,
    config: &SwopeConfig,
) -> Result<Vec<TopKResult>, SwopeError> {
    mi_top_k_batch_exec(
        dataset,
        targets,
        k,
        config,
        &mut NoopObserver,
        &Executor::new(config.threads),
    )
}

/// [`mi_top_k_batch`] with a [`QueryObserver`] attached and an injected
/// [`Executor`].
///
/// The batch emits one observer lifecycle for the whole run
/// ([`QueryKind::MiTopKBatch`]): `iteration` events report the summed live
/// candidates across unfinished targets, and `query_end` aggregates the
/// per-target statistics. Per-target work runs inside the parallel loop,
/// so retirement events are staged per target and emitted serially after
/// each iteration. The executor supplies the (possibly shared) worker
/// pool (see [`crate::exec`]); results are bitwise identical to the
/// unobserved call for any executor.
pub fn mi_top_k_batch_exec<O: QueryObserver>(
    dataset: &Dataset,
    targets: &[AttrIndex],
    k: usize,
    config: &SwopeConfig,
    observer: &mut O,
    exec: &Executor,
) -> Result<Vec<TopKResult>, SwopeError> {
    config.validate()?;
    let h = dataset.num_attrs();
    let n = dataset.num_rows();
    if h == 0 || n == 0 {
        return Err(SwopeError::EmptyDataset);
    }
    if h < 2 {
        return Err(SwopeError::NoCandidates);
    }
    if k == 0 || k > h - 1 {
        return Err(SwopeError::InvalidK { k, candidates: h - 1 });
    }
    for &t in targets {
        if t >= h {
            return Err(SwopeError::TargetOutOfRange { target: t, num_attrs: h });
        }
    }
    if targets.is_empty() {
        return Ok(Vec::new());
    }

    let epsilon = config.epsilon;
    let p_f = config.resolve_p_f(dataset);
    let m0 = config.resolve_m0(dataset, p_f);
    let schedule = DoublingSchedule::new(n, m0);
    let p_prime = p_f / (3.0 * schedule.i_max() as f64 * (h - 1) as f64);

    let mut sampler = make_sampler(n, config.sampling);
    // Shared marginal counters for every attribute (targets included:
    // a target's marginal is just another attribute's).
    let mut marginals: Vec<EntropyCounter> =
        (0..h).map(|a| EntropyCounter::new(dataset.support(a))).collect();

    let mut queries: Vec<TargetQuery> = targets
        .iter()
        .map(|&t| {
            let candidates: Vec<AttrIndex> = (0..h).filter(|&a| a != t).collect();
            let joints = candidates
                .iter()
                .map(|&a| JointEntropyCounter::new(dataset.support(t), dataset.support(a)))
                .collect();
            let bounds = vec![
                MiBounds {
                    sample_mi: 0.0,
                    lower: 0.0,
                    upper: f64::INFINITY,
                    lambda: f64::INFINITY,
                    bias_total: f64::INFINITY,
                };
                candidates.len()
            ];
            TargetQuery {
                target: t,
                joints,
                candidates,
                bounds,
                result: None,
                stats: QueryStats::default(),
                retired_log: Vec::new(),
            }
        })
        .collect();

    // Delta rows are processed in blocks: each block gathers every
    // attribute's codes into contiguous buffers exactly once, so the
    // random row-index access happens once per attribute per block and
    // every target's joint update then streams sequential memory. This is
    // where the batch API beats |T| standalone queries, which each pay
    // the random gather per candidate.
    let mut gathered: Vec<Vec<Code>> = vec![Vec::with_capacity(INGEST_BLOCK_ROWS); h];

    observer.query_start(&QueryMeta {
        kind: QueryKind::MiTopKBatch,
        num_attrs: h,
        num_rows: n,
        epsilon,
        threads: config.threads,
    });
    let observed = observer.enabled();
    let phase_start = |enabled: bool| if enabled { Some(Instant::now()) } else { None };

    let mut outer_iter = 0usize;
    let mut m_target = schedule.m0();
    loop {
        outer_iter += 1;
        let iter = outer_iter;
        let span = phase_start(observed);
        let delta_range = sampler.grow_delta(m_target);
        if let Some(s) = span {
            observer.phase(Phase::SampleGrow, iter, s.elapsed().as_nanos() as u64);
        }
        let m = sampler.sampled();
        let delta = &sampler.rows()[delta_range];
        let lam = lambda(m as u64, n as u64, p_prime);
        let live: usize =
            queries.iter().filter(|q| q.result.is_none()).map(|q| q.candidates.len()).sum();
        observer.iteration(iter, m, live, lam);

        let span = phase_start(observed);
        // Blocks stay in draw order, unlike the other loops' page-grouped
        // deltas: the counters below take codes row by row, and their
        // running `x·log2(x)` sums are float accumulations whose bits
        // depend on that order.
        for block in delta.chunks(INGEST_BLOCK_ROWS) {
            for (attr, buf) in gathered.iter_mut().enumerate() {
                // Widen at gather: these buffers are shared by every query
                // whose target or candidate set touches `attr`, so they use
                // a common u32 representation; the random reads still move
                // only the column's packed width through the cache.
                match dataset.column(attr).storage() {
                    ColumnStorage::Heap(packed) => packed.codes().gather_widen(block, buf),
                    ColumnStorage::Paged(paged) => {
                        paged.gather_widen(block, buf).unwrap_or_else(|e| panic!("{e}"))
                    }
                }
            }
            for (attr, counter) in marginals.iter_mut().enumerate() {
                for &c in &gathered[attr] {
                    counter.add(c);
                }
            }
            let gathered_ref = &gathered;
            exec.for_each_mut(&mut queries, |q| {
                if q.result.is_some() {
                    return;
                }
                let t_codes = &gathered_ref[q.target];
                for (idx, &attr) in q.candidates.iter().enumerate() {
                    let joint = &mut q.joints[idx];
                    for (&tc, &c) in t_codes.iter().zip(&gathered_ref[attr]) {
                        joint.add(tc, c);
                    }
                }
            });
        }
        if let Some(s) = span {
            observer.phase(Phase::Ingest, iter, s.elapsed().as_nanos() as u64);
        }

        // Per-target bound refresh (cheap arithmetic).
        let span = phase_start(observed);
        let marginal_entropies: Vec<f64> = marginals.iter().map(EntropyCounter::entropy).collect();
        exec.for_each_mut(&mut queries, |q| {
            if q.result.is_some() {
                return;
            }
            let h_t = marginal_entropies[q.target];
            let u_t = dataset.support(q.target);
            q.stats.record_iteration(m, q.candidates.len(), lam);
            q.stats.record_work(delta.len(), q.candidates.len(), WorkKind::MiSharedMarginals);
            for (idx, &attr) in q.candidates.iter().enumerate() {
                q.bounds[idx] = mi_bounds(
                    h_t,
                    marginal_entropies[attr],
                    q.joints[idx].entropy(),
                    u_t as u64,
                    dataset.support(attr) as u64,
                    m as u64,
                    n as u64,
                    p_prime,
                );
            }
        });
        if let Some(s) = span {
            observer.phase(Phase::UpdateBounds, iter, s.elapsed().as_nanos() as u64);
        }

        // Per-target stopping check + pruning.
        let span = phase_start(observed);
        exec.for_each_mut(&mut queries, |q| {
            if q.result.is_some() {
                return;
            }

            // Top-k by upper bound among live candidates.
            let mut order: Vec<usize> = (0..q.candidates.len()).collect();
            order.sort_by(|&a, &b| {
                q.bounds[b]
                    .upper
                    .partial_cmp(&q.bounds[a].upper)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(q.candidates[a].cmp(&q.candidates[b]))
            });
            let kth_upper = q.bounds[order[k - 1]].upper;
            let b_max = order[..k].iter().map(|&i| q.bounds[i].bias_total).fold(0.0f64, f64::max);
            let stop =
                kth_upper > 0.0 && (kth_upper - 6.0 * lam - b_max) / kth_upper >= 1.0 - epsilon;
            if stop || m >= n {
                q.stats.converged_early = stop && m < n;
                for (idx, &attr) in q.candidates.iter().enumerate() {
                    q.stats.note_retirement(iter);
                    if observed {
                        q.retired_log.push((attr, q.bounds[idx].lower, q.bounds[idx].upper));
                    }
                }
                let top: Vec<AttrScore> = order[..k]
                    .iter()
                    .map(|&i| AttrScore {
                        attr: q.candidates[i],
                        name: dataset
                            .schema()
                            .field(q.candidates[i])
                            .map(|f| f.name().to_owned())
                            .unwrap_or_default(),
                        estimate: q.bounds[i].point_estimate(),
                        lower: q.bounds[i].lower,
                        upper: q.bounds[i].upper,
                        retired_iteration: iter,
                    })
                    .collect();
                q.result = Some(TopKResult { top, stats: std::mem::take(&mut q.stats) });
                return;
            }

            // Prune candidates that cannot reach this target's top-k.
            let mut by_lower: Vec<usize> = (0..q.candidates.len()).collect();
            by_lower.sort_by(|&a, &b| {
                q.bounds[b]
                    .lower
                    .partial_cmp(&q.bounds[a].lower)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let kth_lower = q.bounds[by_lower[k - 1]].lower;
            let keep: Vec<bool> = q.bounds.iter().map(|b| b.upper >= kth_lower).collect();
            for (idx, &attr) in q.candidates.iter().enumerate() {
                if !keep[idx] {
                    q.stats.note_retirement(iter);
                    if observed {
                        q.retired_log.push((attr, q.bounds[idx].lower, q.bounds[idx].upper));
                    }
                }
            }
            retain_parallel(&mut q.candidates, &keep);
            retain_parallel(&mut q.joints, &keep);
            retain_parallel(&mut q.bounds, &keep);
        });
        if let Some(s) = span {
            observer.phase(Phase::Decide, iter, s.elapsed().as_nanos() as u64);
        }
        if observed {
            for q in &mut queries {
                for (attr, lower, upper) in q.retired_log.drain(..) {
                    observer.attr_retired(attr, iter, AttrBounds { lower, upper });
                }
            }
        }

        if queries.iter().all(|q| q.result.is_some()) {
            break;
        }
        m_target = (m * 2).min(n);
    }

    let results: Vec<TopKResult> = queries
        .into_iter()
        .map(|q| q.result.expect("loop exits only when all targets finished"))
        .collect();
    observer.query_end(&RunStats {
        sample_size: sampler.sampled(),
        iterations: outer_iter,
        rows_scanned: results.iter().map(|r| r.stats.rows_scanned).sum(),
        converged_early: results.iter().all(|r| r.stats.converged_early),
    });
    Ok(results)
}

/// Keeps `items[i]` where `keep[i]`, preserving order.
fn retain_parallel<T>(items: &mut Vec<T>, keep: &[bool]) {
    let mut it = keep.iter();
    items.retain(|_| *it.next().expect("keep mask matches length"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mi_top_k;
    use swope_columnar::{Column, Field, Schema};

    fn correlated_dataset(n: usize) -> Dataset {
        let base: Vec<u32> = (0..n).map(|r| (r as u32) % 4).collect();
        let mut fields = vec![Field::new("t0", 4)];
        let mut columns = vec![Column::new(base.clone(), 4).unwrap()];
        for (i, noise_mod) in [1u32, 3, 7].iter().enumerate() {
            let codes: Vec<u32> = (0..n)
                .map(|r| {
                    if (r as u32) % (noise_mod + 1) == 0 {
                        ((r as u32).wrapping_mul(2654435761) >> 13) % 4
                    } else {
                        base[r]
                    }
                })
                .collect();
            fields.push(Field::new(format!("c{i}"), 4));
            columns.push(Column::new(codes, 4).unwrap());
        }
        Dataset::new(Schema::new(fields), columns).unwrap()
    }

    fn config() -> SwopeConfig {
        SwopeConfig::with_epsilon(0.5)
    }

    #[test]
    fn batch_matches_individual_contracts() {
        let ds = correlated_dataset(25_000);
        let targets = vec![0usize, 1, 2];
        let batch = mi_top_k_batch(&ds, &targets, 2, &config()).unwrap();
        assert_eq!(batch.len(), 3);
        for (result, &t) in batch.iter().zip(&targets) {
            let single = mi_top_k(&ds, t, 2, &config()).unwrap();
            // Same returned attribute sets (both are near-exact here).
            let mut a = result.attr_indices();
            let mut b = single.attr_indices();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "target {t}");
            assert!(result.top.iter().all(|s| s.attr != t));
        }
    }

    #[test]
    fn batch_shares_sampling_work() {
        let ds = correlated_dataset(50_000);
        let targets = vec![0usize, 1, 2, 3];
        let batch = mi_top_k_batch(&ds, &targets, 1, &config()).unwrap();
        let batch_work: u64 = batch.iter().map(|r| r.stats.rows_scanned).sum();
        let single_work: u64 = targets
            .iter()
            .map(|&t| mi_top_k(&ds, t, 1, &config()).unwrap().stats.rows_scanned)
            .sum();
        // Batched accounting excludes the shared marginal scans, so it
        // must come in below the sum of standalone runs.
        assert!(batch_work <= single_work, "batch {batch_work} vs singles {single_work}");
    }

    #[test]
    fn empty_target_list() {
        let ds = correlated_dataset(1_000);
        assert!(mi_top_k_batch(&ds, &[], 1, &config()).unwrap().is_empty());
    }

    #[test]
    fn duplicate_targets_allowed() {
        let ds = correlated_dataset(5_000);
        let batch = mi_top_k_batch(&ds, &[1, 1], 1, &config()).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].attr_indices(), batch[1].attr_indices());
    }

    #[test]
    fn validation() {
        let ds = correlated_dataset(500);
        assert!(mi_top_k_batch(&ds, &[9], 1, &config()).is_err());
        assert!(mi_top_k_batch(&ds, &[0], 0, &config()).is_err());
        assert!(mi_top_k_batch(&ds, &[0], 4, &config()).is_err());
    }

    #[test]
    fn deterministic() {
        let ds = correlated_dataset(20_000);
        let c = config().with_seed(3);
        assert_eq!(
            mi_top_k_batch(&ds, &[0, 2], 2, &c).unwrap(),
            mi_top_k_batch(&ds, &[0, 2], 2, &c).unwrap()
        );
    }
}
