//! Exact full-scan baselines (`O(hN)`), the paper's *Exact* competitor.

use std::cmp::Ordering;

use swope_columnar::{AttrIndex, Dataset};
use swope_core::{Answer, AttrScore, QueryStats, Rule, Shape, SwopeError, WorkKind};
use swope_estimate::entropy::column_entropy;
use swope_estimate::joint::mutual_information;

/// Exact empirical entropy of every attribute, one full scan per column.
pub fn exact_entropy_scores(dataset: &Dataset) -> Vec<f64> {
    (0..dataset.num_attrs()).map(|a| column_entropy(dataset.column(a))).collect()
}

/// Exact empirical mutual information of every attribute against
/// `target` (`None` at the target's own position would be ill-defined, so
/// the target position holds `I(α_t, α_t) = H(α_t)`; callers querying
/// candidates should skip index `target`).
pub fn exact_mi_scores(dataset: &Dataset, target: AttrIndex) -> Vec<f64> {
    let t = dataset.column(target);
    (0..dataset.num_attrs()).map(|a| mutual_information(t, dataset.column(a))).collect()
}

/// The attributes `shape` returns when `scores` — one per attribute, as
/// [`exact_entropy_scores`] or [`exact_mi_scores`] give them — are exact,
/// in answer order. The target is never a candidate. Top-k (and
/// EntropyRank's exact top-k) is the `k` highest scores, ties to the
/// lower attribute; a filter is every candidate scoring at least `η` in
/// the same order; a profile is every candidate in attribute order.
pub fn select(scores: &[f64], shape: &Shape) -> Vec<AttrIndex> {
    let mut attrs: Vec<AttrIndex> =
        (0..scores.len()).filter(|&a| Some(a) != shape.target).collect();
    let descending = |&a: &AttrIndex, &b: &AttrIndex| {
        scores[b].partial_cmp(&scores[a]).unwrap_or(Ordering::Equal).then(a.cmp(&b))
    };
    match shape.rule {
        Rule::TopK { k } | Rule::Rank { k } => {
            attrs.sort_by(descending);
            attrs.truncate(k);
        }
        Rule::Filter { eta } | Rule::FilterExact { eta } => {
            attrs.retain(|&a| scores[a] >= eta);
            attrs.sort_by(descending);
        }
        Rule::Profile { .. } => {}
    }
    attrs
}

/// Answers `shape` exactly by a full scan of every column: scores are
/// point intervals, the sample is the whole dataset, and a comparator
/// rule answers like the rule it makes exact.
///
/// # Errors
///
/// [`Shape::check`]'s: a negative or non-finite threshold or floor, an
/// empty dataset, a target out of range, no candidates, or `k` outside
/// the candidates.
pub fn exact_answer(dataset: &Dataset, shape: &Shape) -> Result<Answer, SwopeError> {
    let n = dataset.num_rows();
    let candidates = shape.check(dataset.num_attrs(), n == 0)?;
    let (scores, work) = match shape.target {
        None => (exact_entropy_scores(dataset), WorkKind::EntropyMarginals),
        Some(t) => (exact_mi_scores(dataset, t), WorkKind::MiPerTarget),
    };
    let name = |a: AttrIndex| dataset.schema().field(a).map(|f| f.name().to_owned());
    Ok(Answer {
        scores: select(&scores, shape)
            .into_iter()
            .map(|attr| AttrScore {
                attr,
                name: name(attr).unwrap_or_default(),
                estimate: scores[attr],
                lower: scores[attr],
                upper: scores[attr],
                retired_iteration: 0,
            })
            .collect(),
        stats: QueryStats {
            sample_size: n,
            iterations: 1,
            rows_scanned: work.units(n, candidates),
            converged_early: false,
            trace: Vec::new(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swope_columnar::{Column, Field, Schema};

    fn dataset() -> Dataset {
        let schema =
            Schema::new(vec![Field::new("low", 2), Field::new("high", 8), Field::new("mid", 4)]);
        let n = 800usize;
        let cols = vec![
            Column::new((0..n).map(|r| (r / 400) as u32).collect(), 2).unwrap(),
            Column::new((0..n).map(|r| (r % 8) as u32).collect(), 8).unwrap(),
            Column::new((0..n).map(|r| (r % 4) as u32).collect(), 4).unwrap(),
        ];
        Dataset::new(schema, cols).unwrap()
    }

    fn names(answer: &Answer) -> Vec<&str> {
        answer.scores.iter().map(|s| s.name.as_str()).collect()
    }

    #[test]
    fn entropy_scores_match_hand_computation() {
        let s = exact_entropy_scores(&dataset());
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!((s[1] - 3.0).abs() < 1e-12);
        assert!((s[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_orders_by_score() {
        let r = exact_answer(&dataset(), &Shape::entropy(Rule::TopK { k: 2 })).unwrap();
        assert_eq!(names(&r), vec!["high", "mid"]);
        assert!(!r.stats.converged_early);
        assert_eq!(r.stats.rows_scanned, 800 * 3);
    }

    #[test]
    fn filter_threshold_semantics_are_inclusive() {
        let r = exact_answer(&dataset(), &Shape::entropy(Rule::Filter { eta: 2.0 })).unwrap();
        assert_eq!(names(&r), vec!["high", "mid"]); // H = 2.0 is included
    }

    #[test]
    fn mi_scores_and_top_k() {
        let ds = dataset();
        // "mid" (r % 4) is a deterministic function of "high" (r % 8):
        // I(high, mid) = H(mid) = 2 bits; I(high, low) is 0 (r/400 is
        // independent of r%8 over 800 rows... 400 % 8 == 0 so yes).
        let s = exact_mi_scores(&ds, 1);
        assert!((s[2] - 2.0).abs() < 1e-9);
        assert!(s[0].abs() < 1e-9);
        let r = exact_answer(&ds, &Shape::mi(1, Rule::TopK { k: 1 })).unwrap();
        assert_eq!(r.scores[0].name, "mid");
        // A target scan, then a marginal and a joint per candidate.
        assert_eq!(r.stats.rows_scanned, 800 * 5);
    }

    #[test]
    fn mi_filter_excludes_target() {
        let r = exact_answer(&dataset(), &Shape::mi(1, Rule::Filter { eta: 0.0 })).unwrap();
        assert!(r.scores.iter().all(|s| s.attr != 1));
        assert_eq!(r.scores.len(), 2);
    }

    #[test]
    fn validation() {
        let ds = dataset();
        let exact = |shape: Shape| exact_answer(&ds, &shape).unwrap_err();
        assert_eq!(
            exact(Shape::entropy(Rule::TopK { k: 0 })),
            SwopeError::InvalidK { k: 0, candidates: 3 }
        );
        assert_eq!(
            exact(Shape::entropy(Rule::TopK { k: 4 })),
            SwopeError::InvalidK { k: 4, candidates: 3 }
        );
        assert_eq!(
            exact(Shape::entropy(Rule::Filter { eta: -1.0 })),
            SwopeError::InvalidThreshold(-1.0)
        );
        assert_eq!(
            exact(Shape::mi(9, Rule::TopK { k: 1 })),
            SwopeError::TargetOutOfRange { target: 9, num_attrs: 3 }
        );
        assert_eq!(
            exact(Shape::mi(9, Rule::Filter { eta: 0.1 })),
            SwopeError::TargetOutOfRange { target: 9, num_attrs: 3 }
        );
    }

    #[test]
    fn exact_bounds_are_degenerate() {
        let r = exact_answer(&dataset(), &Shape::entropy(Rule::TopK { k: 3 })).unwrap();
        for s in &r.scores {
            assert_eq!(s.lower, s.estimate);
            assert_eq!(s.upper, s.estimate);
        }
    }

    #[test]
    fn select_orders_by_score_then_attribute() {
        let scores = [1.0, 3.0, 2.0, 3.0];
        let select = |target, rule| select(&scores, &Shape { target, rule });
        assert_eq!(select(None, Rule::TopK { k: 3 }), vec![1, 3, 2]);
        assert_eq!(select(None, Rule::Rank { k: 3 }), vec![1, 3, 2]);
        assert_eq!(select(Some(1), Rule::TopK { k: 2 }), vec![3, 2]);
        assert_eq!(select(None, Rule::Filter { eta: 2.0 }), vec![1, 3, 2]);
        assert_eq!(select(Some(3), Rule::FilterExact { eta: 2.0 }), vec![1, 2]);
        assert_eq!(select(Some(2), Rule::Profile { floor: 0.05 }), vec![0, 1, 3]);
    }

    #[test]
    fn comparator_and_profile_shapes_answer_exactly() {
        let ds = dataset();
        let exact = |rule| exact_answer(&ds, &Shape::entropy(rule)).unwrap();
        assert_eq!(exact(Rule::Rank { k: 2 }), exact(Rule::TopK { k: 2 }));
        assert_eq!(exact(Rule::FilterExact { eta: 2.0 }), exact(Rule::Filter { eta: 2.0 }));
        assert_eq!(names(&exact(Rule::Profile { floor: 0.05 })), vec!["low", "high", "mid"]);
    }
}
