//! Randomized property tests over the cross-crate invariants the SWOPE
//! analysis rests on.
//!
//! These use the workspace's own deterministic RNG
//! ([`swope_sampling::rng::Xoshiro256pp`]) in fixed-seed loops instead of
//! an external property-testing framework, so every run explores exactly
//! the same cases and a failure message always pins down the case index.

use swope_columnar::{Column, Dataset, Field, Schema};
use swope_estimate::bounds::{bias, entropy_bounds, lambda, mi_bounds};
use swope_estimate::entropy::{column_entropy, entropy_from_counts, EntropyCounter};
use swope_estimate::joint::{joint_entropy, mutual_information, JointEntropyCounter};
use swope_sampling::rng::Xoshiro256pp;
use swope_sampling::PrefixShuffle;

const CASES: usize = 128;

fn rng(label: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(0x51F7_0000 ^ label)
}

fn random_codes(r: &mut Xoshiro256pp, len_range: (usize, usize), support: u32) -> Vec<u32> {
    let (lo, hi) = len_range;
    let len = lo + r.next_below((hi - lo + 1) as u64) as usize;
    (0..len).map(|_| r.next_below(support as u64) as u32).collect()
}

/// The incremental accumulator must track from-scratch recomputation for
/// every update stream.
#[test]
fn accumulator_matches_recompute() {
    let mut r = rng(1);
    for case in 0..CASES {
        let codes = random_codes(&mut r, (1, 500), 40);
        let mut c = EntropyCounter::new(40);
        for &code in &codes {
            c.add(code);
        }
        let drift = (c.entropy() - c.entropy_recomputed()).abs();
        assert!(drift < 1e-9, "case {case}: drift {drift}");
    }
}

/// Entropy is within [0, log2(observed distinct)] for any counts.
#[test]
fn entropy_range() {
    let mut r = rng(2);
    for case in 0..CASES {
        let len = 1 + r.next_below(64) as usize;
        let counts: Vec<u64> = (0..len).map(|_| r.next_below(1000)).collect();
        let h = entropy_from_counts(&counts);
        let k = counts.iter().filter(|&&c| c > 0).count();
        assert!(h >= 0.0, "case {case}");
        if k > 0 {
            assert!(h <= (k as f64).log2() + 1e-9, "case {case}: h={h} k={k}");
        }
    }
}

/// Joint-entropy chain inequalities: max(H(a), H(b)) <= H(a,b) <= H(a)+H(b),
/// hence 0 <= I(a,b) <= min(H(a), H(b)).
#[test]
fn joint_entropy_chain() {
    let mut r = rng(3);
    for case in 0..CASES {
        let codes_a = random_codes(&mut r, (10, 200), 6);
        let shift = r.next_below(6) as u32;
        let mix = r.next_below(2);
        let codes_b: Vec<u32> = codes_a
            .iter()
            .enumerate()
            .map(|(i, &a)| if mix == 0 { (a + shift) % 6 } else { (i as u32) % 6 })
            .collect();
        let a = Column::new(codes_a, 6).unwrap();
        let b = Column::new(codes_b, 6).unwrap();
        let (ha, hb) = (column_entropy(&a), column_entropy(&b));
        let hab = joint_entropy(&a, &b);
        assert!(hab >= ha.max(hb) - 1e-9, "case {case}: hab={hab} ha={ha} hb={hb}");
        assert!(hab <= ha + hb + 1e-9, "case {case}");
        let mi = mutual_information(&a, &b);
        assert!(mi >= 0.0, "case {case}");
        assert!(mi <= ha.min(hb) + 1e-9, "case {case}");
    }
}

/// MI is symmetric.
#[test]
fn mi_symmetry() {
    let mut r = rng(4);
    for case in 0..CASES {
        let codes_a = random_codes(&mut r, (5, 150), 5);
        let seed = 1 + r.next_below(99) as u32;
        let n = codes_a.len();
        let codes_b: Vec<u32> = (0..n).map(|i| (i as u32).wrapping_mul(seed) % 5).collect();
        let a = Column::new(codes_a, 5).unwrap();
        let b = Column::new(codes_b, 5).unwrap();
        let gap = (mutual_information(&a, &b) - mutual_information(&b, &a)).abs();
        assert!(gap < 1e-9, "case {case}: asymmetry {gap}");
    }
}

/// The interval identity H̄ − H̲ = 2λ + b(α) when the lower clamp is
/// disengaged, and width always <= 2λ + b(α).
#[test]
fn entropy_bound_width_identity() {
    let mut r = rng(5);
    for case in 0..CASES {
        let m = 2 + r.next_below(10_000 - 2);
        let n = m + 1 + r.next_below(1_000_000);
        let u = 1 + r.next_below(999);
        let h_s = r.next_f64() * 10.0;
        let p = 10f64.powi(-(1 + r.next_below(11) as i32));
        let b = entropy_bounds(h_s, m, n, u, p);
        let full = 2.0 * b.lambda + b.bias;
        assert!(b.width() <= full + 1e-9, "case {case}");
        if b.lower > 0.0 {
            assert!((b.width() - full).abs() < 1e-9, "case {case}");
        }
        assert!(b.lower <= h_s + 1e-12, "case {case}");
        assert!(b.upper >= h_s - 1e-12, "case {case}");
    }
}

/// λ and b(α) shrink monotonically in the sample size.
#[test]
fn radii_monotone_in_m() {
    let mut r = rng(6);
    let n = 1u64 << 22;
    let p = 1e-8;
    for case in 0..CASES {
        let m = 2 + r.next_below(100_000 - 2);
        let u = 2 + r.next_below(998);
        if 2 * m >= n {
            continue;
        }
        assert!(lambda(2 * m, n, p) <= lambda(m, n, p) + 1e-12, "case {case}");
        assert!(bias(u, 2 * m, n) <= bias(u, m, n) + 1e-12, "case {case}");
    }
}

/// MI bounds bracket the sample MI and collapse at full sample.
#[test]
fn mi_bounds_bracket() {
    let mut r = rng(7);
    for case in 0..CASES {
        let h_t = r.next_f64() * 8.0;
        let h_a = r.next_f64() * 8.0;
        let excess = r.next_f64();
        let m = 2 + r.next_below(998);
        // Every 8th case exercises the full-sample collapse.
        let n = if case % 8 == 0 { m } else { m + r.next_below(100_000) };
        // Construct a consistent joint entropy: max <= h_ta <= h_t+h_a.
        let h_ta = h_t.max(h_a) + excess * h_t.min(h_a);
        let b = mi_bounds(h_t, h_a, h_ta, 50, 50, m, n, 1e-6);
        assert!(b.lower <= b.sample_mi + 1e-9, "case {case}");
        assert!(b.upper >= b.sample_mi - 1e-9, "case {case}");
        if m == n {
            assert!((b.upper - b.lower).abs() < 1e-9, "case {case}");
        }
    }
}

/// Any shuffle prefix is a duplicate-free subset of 0..N, and growing
/// never rewrites the existing prefix.
#[test]
fn shuffle_prefix_invariants() {
    let mut r = rng(8);
    for case in 0..CASES {
        let n = 1 + r.next_below(2000) as usize;
        let seed = r.next_below(1000);
        let steps = 1 + r.next_below(5) as usize;
        let mut s = PrefixShuffle::new(n, seed);
        let mut previous: Vec<u32> = Vec::new();
        let mut target = 0usize;
        for _ in 0..steps {
            target += 1 + r.next_below(499) as usize;
            s.grow_to(target);
            let rows = s.rows();
            assert!(rows.len() <= n, "case {case}");
            assert_eq!(&rows[..previous.len()], previous.as_slice(), "case {case}");
            let unique: std::collections::HashSet<_> = rows.iter().collect();
            assert_eq!(unique.len(), rows.len(), "case {case}: duplicate row");
            assert!(rows.iter().all(|&row| (row as usize) < n), "case {case}");
            previous = rows.to_vec();
        }
    }
}

/// Lemma 3 interval brackets the exact empirical entropy at any sample
/// prefix, for generous failure budgets. (The bound is probabilistic;
/// p = 1e-9 makes a violation across 128 fixed cases astronomically
/// unlikely, so a failure here means a real math bug.)
#[test]
fn bounds_bracket_exact_entropy() {
    let mut r = rng(9);
    for case in 0..CASES {
        let codes = random_codes(&mut r, (64, 800), 16);
        let prefix_frac = 0.1 + 0.9 * r.next_f64();
        let seed = r.next_below(100);
        let n = codes.len();
        let column = Column::new(codes, 16).unwrap();
        let exact = column_entropy(&column);
        let mut sampler = PrefixShuffle::new(n, seed);
        let m = ((n as f64 * prefix_frac) as usize).clamp(2, n);
        let rows = sampler.grow_to(m).to_vec();
        let mut counter = EntropyCounter::new(16);
        for &row in &rows {
            counter.add(column.code(row as usize));
        }
        let b = entropy_bounds(counter.entropy(), m as u64, n as u64, 16, 1e-9);
        assert!(b.lower <= exact + 1e-9, "case {case}: lower {} > exact {exact}", b.lower);
        assert!(b.upper >= exact - 1e-9, "case {case}: upper {} < exact {exact}", b.upper);
    }
}

/// Joint counter tracks its recompute under arbitrary pair streams.
#[test]
fn joint_accumulator_matches_recompute() {
    let mut r = rng(10);
    for case in 0..CASES {
        let len = 1 + r.next_below(400) as usize;
        let mut c = JointEntropyCounter::new(12, 9);
        for _ in 0..len {
            c.add(r.next_below(12) as u32, r.next_below(9) as u32);
        }
        let drift = (c.entropy() - c.entropy_recomputed()).abs();
        assert!(drift < 1e-9, "case {case}: drift {drift}");
    }
}

/// Dataset snapshot round-trips arbitrary generated tables.
#[test]
fn snapshot_round_trip() {
    let mut r = rng(11);
    for case in 0..CASES {
        let num_cols = 1 + r.next_below(4) as usize;
        let rows = 1 + r.next_below(49) as usize;
        let columns: Vec<Column> = (0..num_cols)
            .map(|_| {
                let support = 2 + r.next_below(7) as u32;
                let codes = (0..rows).map(|_| r.next_below(support as u64) as u32).collect();
                Column::new(codes, support).unwrap()
            })
            .collect();
        let fields = columns
            .iter()
            .enumerate()
            .map(|(i, c)| Field::new(format!("f{i}"), c.support()))
            .collect();
        let ds = Dataset::new(Schema::new(fields), columns).unwrap();
        let bytes = swope_columnar::snapshot::encode(&ds);
        let back = swope_columnar::snapshot::decode(&bytes).unwrap();
        assert_eq!(back, ds, "case {case}");
    }
}
