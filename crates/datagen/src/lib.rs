//! # swope-datagen
//!
//! Synthetic categorical dataset generators for SWOPE workloads.
//!
//! ## Why synthetic data
//!
//! The paper evaluates on four public datasets — cdc-behavioral-risk
//! (3.75M×100), census-american-housing (14.77M×107),
//! census-american-population (31.29M×179), and enem (33.71M×117) — which
//! are not redistributable with this repository. The SWOPE algorithms'
//! behaviour depends only on the datasets' *shape*: row/column counts, the
//! per-column empirical distributions (which set the entropy scores the
//! k/η sweeps run against), and the pairwise dependence structure (which
//! sets the MI scores). This crate reproduces that shape:
//!
//! * [`Distribution`] — per-column categorical models (uniform, Zipf,
//!   geometric, two-tier head/tail, constant) sampled in O(1) via Walker's
//!   alias method.
//! * [`ColumnSpec`] / [`DatasetProfile`] — a column mix with optional
//!   dependence on shared latent factors, which creates the MI structure
//!   the §6.3 experiments need.
//! * [`generate`] — deterministic materialization into a
//!   [`swope_columnar::Dataset`].
//! * [`corpus`] — the four named census-like profiles with a `scale`
//!   parameter, plus small profiles for tests.
//!
//! Everything is seeded: equal `(profile, seed)` produces bit-identical
//! datasets on every platform.

#![deny(missing_docs)]
#![warn(clippy::all)]

mod distribution;
mod generator;
mod profile;

pub mod corpus;

pub use distribution::{AliasTable, Distribution};
pub use generator::{generate, generate_column};
pub use profile::{ColumnSpec, DatasetProfile, Dependence};
