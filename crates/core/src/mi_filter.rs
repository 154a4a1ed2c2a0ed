//! Algorithm 4: SWOPE approximate filtering on empirical mutual
//! information.

use swope_columnar::{AttrIndex, Dataset};

use crate::driver::{run_plain, Shape};
use crate::report::FilterResult;
use crate::{SwopeConfig, SwopeError};

/// Approximate filtering query on empirical mutual information against a
/// target attribute (paper Algorithm 4).
///
/// Returns candidate attributes whose `I(α_t, α)` is (approximately) at
/// least `η`, satisfying Definition 6 with probability `1 − p_f`. The
/// steps are Algorithm 2's with entropy intervals replaced by the §4.1 MI
/// intervals and the failure budget set to `p'_f = p_f/(3·i_max·(h−1))`:
///
/// * `Ī − I̲ < 2εη` → decide by the point estimate `Î ≷ η`;
/// * `I̲ ≥ (1−ε)η` → accept;
/// * `Ī < (1+ε)η` → reject.
///
/// Expected cost is `O(min{hN, h·log(h·log N/p_f)·log²N / (ε²·η²)})`
/// (Theorem 6).
///
/// This is [`crate::run`] with [`Shape::MiFilter`] over the whole dataset,
/// unobserved, on `config.threads` workers.
///
/// # Errors
///
/// Fails fast on invalid `ε`/`p_f`/`η`, an empty dataset, a target index
/// out of range, or no candidate attributes.
pub fn mi_filter(
    dataset: &Dataset,
    target: AttrIndex,
    eta: f64,
    config: &SwopeConfig,
) -> Result<FilterResult, SwopeError> {
    run_plain(dataset, Shape::MiFilter { target, eta }, config).map(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swope_columnar::{Column, Field, Schema};
    use swope_estimate::joint::mutual_information;

    /// Target cycles 0..4; candidates copy it with varying scrambling plus
    /// one independent column (MI ≈ 0).
    fn correlated_dataset(n: usize) -> Dataset {
        let target: Vec<u32> = (0..n).map(|r| (r as u32) % 4).collect();
        let mut fields = vec![Field::new("target", 4)];
        let mut columns = vec![Column::new(target.clone(), 4).unwrap()];
        for (i, noise_mod) in [1u32, 7].iter().enumerate() {
            let codes: Vec<u32> = (0..n)
                .map(|r| {
                    if (r as u32) % (noise_mod + 1) == 0 {
                        ((r as u32).wrapping_mul(2654435761) >> 13) % 4
                    } else {
                        target[r]
                    }
                })
                .collect();
            fields.push(Field::new(format!("c{i}"), 4));
            columns.push(Column::new(codes, 4).unwrap());
        }
        fields.push(Field::new("indep", 4));
        columns.push(
            Column::new(
                (0..n).map(|r| ((r as u32).wrapping_mul(2654435761) >> 13) % 4).collect(),
                4,
            )
            .unwrap(),
        );
        Dataset::new(Schema::new(fields), columns).unwrap()
    }

    fn config() -> SwopeConfig {
        SwopeConfig { epsilon: 0.5, ..SwopeConfig::default() }
    }

    #[test]
    fn accepts_informative_rejects_independent() {
        let ds = correlated_dataset(30_000);
        // c1 (lightly scrambled) has MI ~1.6 bits; indep has ~0.
        let r = mi_filter(&ds, 0, 0.5, &config()).unwrap();
        assert!(r.accepted.iter().any(|s| s.name == "c1"));
        assert!(r.accepted.iter().all(|s| s.name != "indep"));
    }

    #[test]
    fn definition6_compliance_against_exact_scores() {
        let ds = correlated_dataset(20_000);
        let eta = 0.3;
        let eps = 0.5;
        let cfg = SwopeConfig { epsilon: eps, ..SwopeConfig::default() };
        let r = mi_filter(&ds, 0, eta, &cfg).unwrap();
        for attr in 1..ds.num_attrs() {
            let exact = mutual_information(ds.column(0), ds.column(attr));
            if exact >= (1.0 + eps) * eta {
                assert!(r.contains(attr), "attr {attr} (I={exact}) must be accepted");
            }
            if exact < (1.0 - eps) * eta {
                assert!(!r.contains(attr), "attr {attr} (I={exact}) must be rejected");
            }
        }
    }

    #[test]
    fn threshold_zero_accepts_all_candidates() {
        let ds = correlated_dataset(2_000);
        let r = mi_filter(&ds, 0, 0.0, &config()).unwrap();
        assert_eq!(r.accepted.len(), ds.num_attrs() - 1);
    }

    #[test]
    fn huge_threshold_accepts_nothing() {
        let ds = correlated_dataset(10_000);
        let r = mi_filter(&ds, 0, 10.0, &config()).unwrap();
        assert!(r.accepted.is_empty());
    }

    #[test]
    fn validation_errors() {
        let ds = correlated_dataset(500);
        assert!(matches!(
            mi_filter(&ds, 42, 0.3, &config()),
            Err(SwopeError::TargetOutOfRange { .. })
        ));
        assert!(matches!(mi_filter(&ds, 0, -0.5, &config()), Err(SwopeError::InvalidThreshold(_))));
    }

    #[test]
    fn deterministic_and_parallel_consistent() {
        let ds = correlated_dataset(20_000);
        let c = config().with_seed(3);
        let a = mi_filter(&ds, 0, 0.3, &c).unwrap();
        let b = mi_filter(&ds, 0, 0.3, &c.clone().with_threads(4)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn target_excluded_from_answer() {
        let ds = correlated_dataset(5_000);
        let r = mi_filter(&ds, 0, 0.0, &config()).unwrap();
        assert!(!r.contains(0));
    }
}
