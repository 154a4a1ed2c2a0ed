//! Materializes a [`DatasetProfile`] into a columnar dataset.

use swope_columnar::{Column, Dataset, Field, Schema};
use swope_sampling::rng::Xoshiro256pp;

use crate::{DatasetProfile, Distribution};

/// Generates the dataset described by `profile`, deterministically in
/// `(profile, seed)`.
///
/// Columns are generated independently given the latent factor values, so
/// each column uses its own forked RNG stream — adding or reordering
/// columns does not perturb the others.
///
/// # Panics
/// Panics if `profile.validate()` fails (programming error in the
/// profile, not a data error).
pub fn generate(profile: &DatasetProfile, seed: u64) -> Dataset {
    profile.validate().expect("invalid dataset profile");
    let n = profile.rows;
    let root = Xoshiro256pp::seed_from_u64(seed);

    // Latent factor values per row, each factor from its own stream.
    let latents: Vec<Vec<u32>> = profile
        .latent_supports
        .iter()
        .enumerate()
        .map(|(i, &u)| {
            let mut rng = root.fork(0x1a7e_0000 + i as u64);
            (0..n).map(|_| rng.next_below(u as u64) as u32).collect()
        })
        .collect();

    let mut fields = Vec::with_capacity(profile.columns.len());
    let mut columns = Vec::with_capacity(profile.columns.len());
    for (ci, spec) in profile.columns.iter().enumerate() {
        let mut rng = root.fork(0xc01_0000 + ci as u64);
        let u = spec.distribution.support();
        let sampler = spec.distribution.sampler();
        let codes: Vec<u32> = match spec.dependence {
            None => (0..n).map(|_| sampler.sample(&mut rng)).collect(),
            Some(dep) => {
                let latent = &latents[dep.latent];
                let latent_u = profile.latent_supports[dep.latent] as u64;
                (0..n)
                    .map(|r| {
                        if rng.next_f64() < dep.strength {
                            spread_latent(latent[r], latent_u, u, ci as u64)
                        } else {
                            sampler.sample(&mut rng)
                        }
                    })
                    .collect()
            }
        };
        fields.push(Field::new(spec.name.clone(), u));
        columns.push(Column::new_unchecked(codes, u));
    }
    Dataset::new(Schema::new(fields), columns).expect("generator output is consistent")
}

/// Deterministically maps a latent value into a column's code space.
///
/// Each column gets its own mixing constant so two columns tied to the
/// same latent factor agree on the *grouping* of rows (hence share MI)
/// without being bitwise-identical copies.
#[inline]
fn spread_latent(z: u32, latent_u: u64, column_u: u32, column_salt: u64) -> u32 {
    if column_u as u64 >= latent_u {
        // Injective embedding: the latent value is fully recoverable.
        z % column_u
    } else {
        // Compress via a salted mix so different columns merge different
        // latent values together.
        let mixed = (z as u64).wrapping_add(column_salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed >> 33) % column_u as u64) as u32
    }
}

/// Convenience: generates a single independent column of `n` rows.
pub fn generate_column(dist: &Distribution, n: usize, seed: u64) -> Column {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let sampler = dist.sampler();
    let codes: Vec<u32> = (0..n).map(|_| sampler.sample(&mut rng)).collect();
    Column::new_unchecked(codes, dist.support())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColumnSpec;
    use swope_estimate::entropy::column_entropy;
    use swope_estimate::joint::mutual_information;

    fn profile() -> DatasetProfile {
        DatasetProfile {
            name: "test".into(),
            rows: 30_000,
            latent_supports: vec![8],
            columns: vec![
                ColumnSpec::independent("uniform", Distribution::Uniform { u: 16 }),
                ColumnSpec::independent("skew", Distribution::Zipf { u: 16, s: 1.5 }),
                ColumnSpec::dependent("dep_hi", Distribution::Uniform { u: 8 }, 0, 0.9),
                ColumnSpec::dependent("dep_lo", Distribution::Uniform { u: 8 }, 0, 0.3),
                ColumnSpec::independent("indep", Distribution::Uniform { u: 8 }),
            ],
        }
    }

    #[test]
    fn shape_matches_profile() {
        let ds = generate(&profile(), 1);
        assert_eq!(ds.num_rows(), 30_000);
        assert_eq!(ds.num_attrs(), 5);
        assert_eq!(ds.support(0), 16);
        assert_eq!(ds.attr_index("dep_hi").unwrap(), 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&profile(), 9);
        let b = generate(&profile(), 9);
        assert_eq!(a, b);
        let c = generate(&profile(), 10);
        assert_ne!(a.column(0).to_codes(), c.column(0).to_codes());
    }

    #[test]
    fn empirical_entropy_tracks_model_entropy() {
        let ds = generate(&profile(), 3);
        let uniform_h = column_entropy(ds.column(0));
        let skew_h = column_entropy(ds.column(1));
        assert!((uniform_h - 4.0).abs() < 0.05, "uniform entropy {uniform_h}");
        let model = Distribution::Zipf { u: 16, s: 1.5 }.entropy();
        assert!((skew_h - model).abs() < 0.1, "zipf entropy {skew_h} vs model {model}");
    }

    #[test]
    fn shared_latent_creates_mi_ordering() {
        let ds = generate(&profile(), 5);
        let hi = mutual_information(ds.column(2), ds.column(3));
        let indep = mutual_information(ds.column(2), ds.column(4));
        // dep_hi and dep_lo share latent 0 -> positive MI; indep does not.
        assert!(hi > 0.1, "dependent MI too low: {hi}");
        assert!(indep < 0.05, "independent MI too high: {indep}");
        // Strongly coupled columns beat weakly coupled ones against the
        // same partner.
        let strong_pairing = mutual_information(ds.column(2), ds.column(3));
        assert!(strong_pairing > indep);
    }

    #[test]
    fn dependence_strength_orders_mi() {
        // Two columns at strengths 0.9/0.3 against a third at 0.9.
        let p = DatasetProfile {
            name: "s".into(),
            rows: 40_000,
            latent_supports: vec![8],
            columns: vec![
                ColumnSpec::dependent("anchor", Distribution::Uniform { u: 8 }, 0, 0.9),
                ColumnSpec::dependent("strong", Distribution::Uniform { u: 8 }, 0, 0.8),
                ColumnSpec::dependent("weak", Distribution::Uniform { u: 8 }, 0, 0.3),
            ],
        };
        let ds = generate(&p, 7);
        let strong = mutual_information(ds.column(0), ds.column(1));
        let weak = mutual_information(ds.column(0), ds.column(2));
        assert!(strong > weak, "strong {strong} <= weak {weak}");
    }

    #[test]
    fn generate_column_shape() {
        let col = generate_column(&Distribution::Geometric { u: 10, p: 0.4 }, 5_000, 2);
        assert_eq!(col.len(), 5_000);
        assert_eq!(col.support(), 10);
        assert!(col.value_counts()[0] > col.value_counts()[5]);
    }

    #[test]
    fn zero_rows_profile() {
        let p = DatasetProfile::new(
            "empty",
            0,
            vec![ColumnSpec::independent("a", Distribution::Uniform { u: 4 })],
        );
        let ds = generate(&p, 1);
        assert_eq!(ds.num_rows(), 0);
        assert_eq!(ds.num_attrs(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid dataset profile")]
    fn invalid_profile_panics() {
        let p = DatasetProfile {
            name: "bad".into(),
            rows: 10,
            latent_supports: vec![],
            columns: vec![ColumnSpec::dependent("c", Distribution::Uniform { u: 4 }, 0, 0.5)],
        };
        generate(&p, 1);
    }
}
