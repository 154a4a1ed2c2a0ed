//! Hypergeometric variates: how many of `draws` records taken without
//! replacement from `total` fall in a marked subset of `good`.
//!
//! One variate stands in for `draws` individual urn steps, which is what
//! lets a sampler that only needs *counts* (how many covered draws, how
//! many of them carry a code in this half of the support) skip the
//! per-record loop. Two regimes, chosen from the arguments alone so a
//! given `(rng state, total, good, draws)` always takes the same one:
//!
//! * `min(draws, good)` at most [`URN_MAX`] after folding — that many
//!   exact integer urn steps ([`Xoshiro256pp::next_below`]);
//! * otherwise — inversion of one uniform from the mode outward along
//!   the pmf ratio recurrence, `pmf(mode)` from [`ln_factorial`]. The
//!   expected walk is about `1.6 σ` steps.
//!
//! The inversion works in `f64`: `pmf(mode)` carries a relative error of
//! roughly `total · ln(total) · 2⁻⁵²` (1e-9 at a million records, 2e-5 at
//! the `u32` row limit), which is the only departure from the exact law.

use crate::rng::Xoshiro256pp;

/// Largest `min(draws, good)` answered by integer urn steps. Measured:
/// an urn step costs about 2.4 ns and the inversion about 130 ns before
/// its first step (nine `ln_factorial`s and an `exp`), so they cross
/// near fifty.
const URN_MAX: u64 = 48;

/// `ln n!` for `n < 16`, correctly rounded.
const LN_FACTORIAL_SMALL: [f64; 16] = [
    0.0,
    0.0,
    std::f64::consts::LN_2,
    1.791759469228055,
    3.1780538303479458,
    4.787491742782046,
    6.579251212010101,
    8.525161361065415,
    10.60460290274525,
    12.801827480081469,
    15.104412573075516,
    17.502307845873887,
    19.987214495661885,
    22.552163853123425,
    25.19122118273868,
    27.89927138384089,
];

/// `ln n!`: a table below 16, the Stirling series above (its first
/// dropped term is under `2e-14` at `n = 16` and shrinks as `n⁻⁹`).
pub fn ln_factorial(n: u64) -> f64 {
    const HALF_LN_TWO_PI: f64 = 0.918_938_533_204_672_7;
    if let Some(&v) = LN_FACTORIAL_SMALL.get(n as usize) {
        return v;
    }
    let x = n as f64;
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    let series =
        inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 * (1.0 / 1680.0))));
    (x + 0.5) * x.ln() - x + HALF_LN_TWO_PI + series
}

/// One hypergeometric variate: the number of marked records among
/// `draws` taken uniformly without replacement from `total` records of
/// which `good` are marked. Always inside
/// `[max(0, draws − (total − good)), min(draws, good)]`; degenerate
/// arguments (`draws` or `good` equal to 0 or `total`) consume no
/// randomness.
///
/// # Panics
/// Panics if `good > total` or `draws > total`.
pub fn hypergeometric(rng: &mut Xoshiro256pp, total: u64, good: u64, draws: u64) -> u64 {
    assert!(good <= total && draws <= total, "hypergeometric({total}, {good}, {draws})");
    // Fold onto draws ≤ total/2 and good ≤ total/2: the complement of
    // the sample and the complement of the marked set are hypergeometric
    // too.
    if draws > total - draws {
        return good - hypergeometric(rng, total, good, total - draws);
    }
    if good > total - good {
        return draws - hypergeometric(rng, total, total - good, draws);
    }
    // The law is symmetric in (good, draws), so the urn may walk
    // whichever is shorter.
    let (short, long) = if draws <= good { (draws, good) } else { (good, draws) };
    if short <= URN_MAX {
        let mut hits = 0;
        for taken in 0..short {
            if rng.next_below(total - taken) < long - hits {
                hits += 1;
            }
        }
        return hits;
    }
    invert_from_mode(rng, total, good, draws)
}

/// Inversion for the folded case (`draws`, `good` ≤ `total / 2`, so the
/// support is `0..=min(draws, good)`): subtracts pmf values from one
/// uniform, alternating below and above the mode, until it is used up.
fn invert_from_mode(rng: &mut Xoshiro256pp, total: u64, good: u64, draws: u64) -> u64 {
    let bad = total - good;
    let top = draws.min(good);
    let mode = ((draws as u128 + 1) * (good as u128 + 1) / (total as u128 + 2)) as u64;
    let ln_pmf = ln_factorial(good) - ln_factorial(mode) - ln_factorial(good - mode)
        + ln_factorial(bad)
        - ln_factorial(draws - mode)
        - ln_factorial(bad - draws + mode)
        - ln_factorial(total)
        + ln_factorial(draws)
        + ln_factorial(total - draws);
    let at_mode = ln_pmf.exp();
    let mut left = rng.next_f64() - at_mode;
    if left < 0.0 {
        return mode;
    }
    // Terms this far below the mode's are beyond the uniform's 53 bits;
    // a walk that reaches them is chasing rounding error, not mass.
    let floor = at_mode * 1e-20;
    let (goodf, drawsf, slack) = (good as f64, draws as f64, (bad - draws) as f64);
    let (mut lo, mut hi) = (mode, mode);
    let (mut p_lo, mut p_hi) = (at_mode, at_mode);
    loop {
        let mut moved = false;
        if lo > 0 && p_lo > floor {
            let x = lo as f64;
            p_lo *= x * (slack + x) / ((goodf - x + 1.0) * (drawsf - x + 1.0));
            lo -= 1;
            left -= p_lo;
            if left < 0.0 {
                return lo;
            }
            moved = true;
        }
        if hi < top && p_hi > floor {
            let x = hi as f64;
            p_hi *= (goodf - x) * (drawsf - x) / ((x + 1.0) * (slack + x + 1.0));
            hi += 1;
            left -= p_hi;
            if left < 0.0 {
                return hi;
            }
            moved = true;
        }
        if !moved {
            return mode;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact pmf over the support, by the ratio recurrence in log
    /// space and a final normalisation — no `ln_factorial` involved.
    fn exact_pmf(total: u64, good: u64, draws: u64) -> (u64, Vec<f64>) {
        let bad = total - good;
        let lo = draws.saturating_sub(bad);
        let hi = draws.min(good);
        let mut logs = vec![0.0f64];
        for x in lo..hi {
            let num = (good - x) as f64 * (draws - x) as f64;
            let den = (x + 1) as f64 * (bad + x + 1 - draws) as f64;
            logs.push(logs.last().unwrap() + (num / den).ln());
        }
        let max = logs.iter().cloned().fold(f64::MIN, f64::max);
        let weights: Vec<f64> = logs.iter().map(|l| (l - max).exp()).collect();
        let sum: f64 = weights.iter().sum();
        (lo, weights.into_iter().map(|w| w / sum).collect())
    }

    /// Pearson χ² of `samples` variates against the exact pmf, cells
    /// with an expectation under 5 pooled into their tail. Returns the
    /// statistic and its degrees of freedom.
    fn chi_square(seed: u64, total: u64, good: u64, draws: u64, samples: usize) -> (f64, usize) {
        let (lo, pmf) = exact_pmf(total, good, draws);
        let mut observed = vec![0u64; pmf.len()];
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..samples {
            let x = hypergeometric(&mut rng, total, good, draws);
            assert!(x >= lo && ((x - lo) as usize) < pmf.len(), "{x} outside the support");
            observed[(x - lo) as usize] += 1;
        }
        let mut cells: Vec<(f64, f64)> = Vec::new();
        let (mut exp_acc, mut obs_acc) = (0.0, 0.0);
        for (p, &o) in pmf.iter().zip(&observed) {
            exp_acc += p * samples as f64;
            obs_acc += o as f64;
            if exp_acc >= 5.0 {
                cells.push((exp_acc, obs_acc));
                (exp_acc, obs_acc) = (0.0, 0.0);
            }
        }
        // The upper tail's leftovers join the last full cell.
        let last = cells.last_mut().expect("at least one cell");
        last.0 += exp_acc;
        last.1 += obs_acc;
        let stat = cells.iter().map(|&(e, o)| (o - e) * (o - e) / e).sum();
        (stat, cells.len() - 1)
    }

    #[test]
    fn matches_the_exact_pmf_in_both_regimes_and_every_fold() {
        // (total, good, draws): inversion unfolded, draws folded, good
        // folded, both folded; a wide inversion and a lopsided one; the
        // urn through a short `draws` and through a fold; a population
        // whose folds are both ties.
        let cases = [
            (1000, 300, 100),
            (1000, 300, 900),
            (1000, 800, 100),
            (1000, 800, 900),
            (500_000, 100_000, 14_000),
            (500_000, 40, 14_000),
            (500_000, 14_000, 40),
            (500_000, 499_990, 14_000),
            (60, 30, 30),
        ];
        for (total, good, draws) in cases {
            for seed in [1, 2, 3] {
                let (stat, dof) = chi_square(seed, total, good, draws, 20_000);
                // Mean dof, standard deviation sqrt(2 dof): five sigmas.
                let limit = dof as f64 + 5.0 * (2.0 * dof as f64).sqrt();
                assert!(
                    stat < limit,
                    "HG({total}, {good}, {draws}) seed {seed}: chi2 {stat:.1} over {dof} dof"
                );
            }
        }
    }

    #[test]
    fn degenerate_arguments_are_exact_and_consume_no_randomness() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut untouched = rng.clone();
        for total in [0u64, 1, 2, 77] {
            for other in 0..=total {
                assert_eq!(hypergeometric(&mut rng, total, other, 0), 0);
                assert_eq!(hypergeometric(&mut rng, total, other, total), other);
                assert_eq!(hypergeometric(&mut rng, total, 0, other), 0);
                assert_eq!(hypergeometric(&mut rng, total, total, other), other);
            }
        }
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn result_stays_inside_the_support() {
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        for _ in 0..20_000 {
            let total = 1 + rng.next_below(5_000);
            let good = rng.next_below(total + 1);
            let draws = rng.next_below(total + 1);
            let x = hypergeometric(&mut rng, total, good, draws);
            assert!(x <= draws.min(good), "HG({total}, {good}, {draws}) = {x}");
            assert!(x >= draws.saturating_sub(total - good), "HG({total}, {good}, {draws}) = {x}");
        }
    }

    #[test]
    fn same_seed_same_variates() {
        let draw = |seed| {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            (0..50).map(|_| hypergeometric(&mut rng, 100_000, 30_000, 5_000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(4), draw(4));
        assert_ne!(draw(4), draw(5));
    }

    #[test]
    #[should_panic(expected = "hypergeometric(10, 11, 3)")]
    fn more_marked_than_records_panics() {
        hypergeometric(&mut Xoshiro256pp::seed_from_u64(1), 10, 11, 3);
    }

    #[test]
    fn ln_factorial_tracks_summed_logs_to_ten_million() {
        // Kahan-summed reference, compared wherever n is a power of two,
        // just under one, or inside the table/series seam.
        let (mut sum, mut carry) = (0.0f64, 0.0f64);
        for n in 1..=10_000_000u64 {
            let term = (n as f64).ln() - carry;
            let next = sum + term;
            carry = (next - sum) - term;
            sum = next;
            if n <= 40 || n.is_power_of_two() || (n + 1).is_power_of_two() || n == 10_000_000 {
                let got = ln_factorial(n);
                assert!(
                    (got - sum).abs() <= 1e-10 * sum.max(1.0),
                    "ln {n}! = {got} but the sum of logs is {sum}"
                );
            }
        }
        assert_eq!(ln_factorial(0), 0.0);
    }
}
