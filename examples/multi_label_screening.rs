//! Multi-label relevance screening: one MI top-k query per label.
//!
//! Scenario: a feature store serves several prediction tasks (labels).
//! For each label we want its top-k most informative features, so we
//! run `mi_top_k` once per label; each query samples only as far as its
//! own stopping rule needs.
//!
//! ```text
//! cargo run --release -p swope-examples --example multi_label_screening
//! ```

use std::time::Instant;

use swope_core::{mi_top_k, SwopeConfig};
use swope_datagen::{generate, ColumnSpec, DatasetProfile, Distribution};

/// Three label columns driven by different latent factors, features
/// spread across those factors, plus noise.
fn build_profile() -> DatasetProfile {
    let mut columns = Vec::new();
    for (i, latent) in [0usize, 1, 2].iter().enumerate() {
        columns.push(ColumnSpec::dependent(
            format!("label_{i}"),
            Distribution::Uniform { u: 4 },
            *latent,
            0.9,
        ));
    }
    for i in 0..12 {
        let latent = i % 3;
        let strength = 0.3 + 0.05 * i as f64;
        columns.push(ColumnSpec::dependent(
            format!("feat_{i}"),
            Distribution::Uniform { u: 8 },
            latent,
            strength,
        ));
    }
    for i in 0..10 {
        columns.push(ColumnSpec::independent(
            format!("noise_{i}"),
            Distribution::Zipf { u: 16, s: 1.1 },
        ));
    }
    DatasetProfile {
        name: "multilabel".into(),
        rows: 200_000,
        latent_supports: vec![8, 8, 8],
        columns,
    }
}

fn main() {
    let dataset = generate(&build_profile(), 17);
    let labels = [0usize, 1, 2];
    let k = 4;
    let config = SwopeConfig::with_epsilon(0.5);
    println!(
        "{} rows x {} attributes; screening top-{k} features for {} labels\n",
        dataset.num_rows(),
        dataset.num_attrs(),
        labels.len()
    );

    let t0 = Instant::now();
    let results: Vec<_> =
        labels.iter().map(|&t| mi_top_k(&dataset, t, k, &config).expect("valid query")).collect();
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;

    for (i, result) in results.iter().enumerate() {
        println!("label_{i}: top-{k} features by MI");
        for s in &result.top {
            println!("    {:<10} I ≈ {:.3} bits", s.name, s.estimate);
        }
    }

    let work: u64 = results.iter().map(|r| r.stats.rows_scanned).sum();
    println!("\n{elapsed_ms:.1} ms for all labels; {work} counter updates");
}
