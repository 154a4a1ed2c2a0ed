//! Concentration bounds for sampling without replacement (paper §2.2–§4).
//!
//! The chain of results implemented here:
//!
//! * **Lemma 1** (bias): `0 ≤ H_D(α) − E[H_S(α)] ≤ b(α)` with
//!   `b(α) = log2(1 + (u_α−1)(N−M) / (M(N−1)))` — [`bias`].
//! * **Lemma 2** (El-Yaniv & Pechyony): a sub-Gaussian tail for
//!   `(M,N)`-symmetric functions of a random permutation, with
//!   per-swap sensitivity `β = log2(M/(M−1)) + log2(M−1)/M` for empirical
//!   entropy — [`beta`].
//! * **Lemma 3**: inverting Lemma 2 at failure probability `p` gives the
//!   deviation radius [`lambda`] and the interval
//!   `H ∈ [H_S − λ, H_S + λ + b(α)]` — [`entropy_bounds`].
//! * **§4.1**: mutual information bounds combining three entropy intervals
//!   with the joint support bounded by `ū = u_t·u_α` — [`mi_bounds`]. The
//!   interval width is `6λ + b'` with `b' = b(α_t) + b(α) + b(α_t, α)`.
//! * **§4.1 with exact marginals**: when `H_D(α_t)` and `H_D(α)` are
//!   known exactly (a partition sketch's whole-dataset counts), only the
//!   joint needs Lemma 3 — [`mi_bounds_exact_marginals`]. The interval
//!   `I ∈ [H_t + H_α − (H_S(α_t, α) + λ + b(α_t, α)),
//!   H_t + H_α − max(H_S(α_t, α) − λ, 0)]` is `2λ + b(α_t, α)` wide and
//!   spends one Lemma-3 application per candidate, not three.
//! * **Lemma 4**: the sample size `M*` at which an interval's width —
//!   `2λ + b(α)`, or any `w·λ + Σ_i b(u_i)` — is at most `κ`:
//!   [`sample_size_for_width`], the cost side of Theorems 2 and 4.
//!
//! Conventions: `M = 0` or `M = 1` yield infinite radii (no information);
//! `M = N` yields zero radii (the sample is the population, bounds
//! collapse onto the exact value). Lower bounds are clamped at 0 —
//! entropy and MI are nonnegative, so clamping only tightens and never
//! invalidates an interval.

/// Per-swap sensitivity `β` of empirical entropy under one transposition of
/// a sampled and an unsampled record (Lemma 3's constant):
/// `β = log2(M/(M−1)) + log2(M−1)/M`.
///
/// Returns `+∞` for `m < 2` (a 0- or 1-record sample carries no usable
/// concentration).
pub fn beta(m: u64) -> f64 {
    if m < 2 {
        return f64::INFINITY;
    }
    let mf = m as f64;
    (mf / (mf - 1.0)).log2() + (mf - 1.0).log2() / mf
}

/// Deviation radius `λ` (Eq. 6): the one-sided error of `H_S` vs its
/// expectation at failure probability `p`, from Lemma 2:
///
/// ```text
/// λ = β·sqrt( M(N−M)·ln(2/p) / (2(N−1/2)·(1 − 1/(2·max(M, N−M)))) )
/// ```
///
/// Returns 0 when `m ≥ n` (exact) and `+∞` when `m < 2`.
///
/// ```
/// use swope_estimate::bounds::lambda;
///
/// let l = lambda(10_000, 1_000_000, 1e-6);
/// assert!(l > 0.0 && l < 0.5);               // ~0.4 bits at a 1% sample
/// assert!(lambda(40_000, 1_000_000, 1e-6) < l); // shrinks with M
/// assert_eq!(lambda(1_000_000, 1_000_000, 1e-6), 0.0); // exact at M = N
/// ```
pub fn lambda(m: u64, n: u64, p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "failure probability must be in (0,1), got {p}");
    if n == 0 || m >= n {
        return 0.0;
    }
    if m < 2 {
        return f64::INFINITY;
    }
    let (mf, nf) = (m as f64, n as f64);
    let correction = 1.0 - 1.0 / (2.0 * (m.max(n - m)) as f64);
    let inner = mf * (nf - mf) * (2.0 / p).ln() / (2.0 * (nf - 0.5) * correction);
    beta(m) * inner.sqrt()
}

/// Bias bound `b(α)` (Eq. 7 / Lemma 1): the maximum downward bias of
/// `E[H_S(α)]` relative to `H_D(α)` for an attribute of support `u`:
///
/// ```text
/// b(α) = log2(1 + (u−1)(N−M) / (M(N−1)))
/// ```
///
/// Returns 0 when `m ≥ n` and `+∞` when `m = 0`.
///
/// ```
/// use swope_estimate::bounds::bias;
///
/// // A 1000-value attribute sampled at 1%: up to ~0.14 bits of bias.
/// let b = bias(1000, 10_000, 1_000_000);
/// assert!(b > 0.1 && b < 0.2);
/// // A binary attribute at the same sample: essentially none.
/// assert!(bias(2, 10_000, 1_000_000) < 2e-4);
/// ```
pub fn bias(u: u64, m: u64, n: u64) -> f64 {
    if n <= 1 || m >= n {
        return 0.0;
    }
    if m == 0 {
        return f64::INFINITY;
    }
    let (uf, mf, nf) = (u as f64, m as f64, n as f64);
    (1.0 + (uf - 1.0) * (nf - mf) / (mf * (nf - 1.0))).log2()
}

/// A confidence interval for an empirical entropy, per Lemma 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntropyBounds {
    /// The sample entropy `H_S(α)` the interval is centred on.
    pub sample_entropy: f64,
    /// Lower bound `H̲(α) = max(H_S − λ, 0)`.
    pub lower: f64,
    /// Upper bound `H̄(α) = H_S + λ + b(α)`.
    pub upper: f64,
    /// The deviation radius λ used.
    pub lambda: f64,
    /// The bias term b(α) used.
    pub bias: f64,
}

impl EntropyBounds {
    /// The point estimate `Ĥ = (H̲ + H̄)/2` used by the filtering
    /// algorithms.
    pub fn point_estimate(&self) -> f64 {
        0.5 * (self.lower + self.upper)
    }

    /// Interval width `H̄ − H̲` (≤ `2λ + b` with equality unless the lower
    /// clamp at 0 engaged).
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }
}

/// Builds the Lemma 3 interval for one attribute.
///
/// * `sample_entropy` — `H_S(α)` over the current `m`-record sample,
/// * `m`, `n` — sample and population sizes,
/// * `u` — the attribute's support size,
/// * `p` — per-application failure probability (`p'_f` in the algorithms).
///
/// ```
/// use swope_estimate::bounds::entropy_bounds;
///
/// let b = entropy_bounds(4.2, 10_000, 1_000_000, 100, 1e-6);
/// assert!(b.lower < 4.2 && 4.2 < b.upper);
/// // The interval-width identity H̄ − H̲ = 2λ + b(α):
/// assert!((b.width() - (2.0 * b.lambda + b.bias)).abs() < 1e-12);
/// ```
pub fn entropy_bounds(sample_entropy: f64, m: u64, n: u64, u: u64, p: f64) -> EntropyBounds {
    let lam = lambda(m, n, p);
    let b = bias(u, m, n);
    EntropyBounds {
        sample_entropy,
        lower: (sample_entropy - lam).max(0.0),
        upper: sample_entropy + lam + b,
        lambda: lam,
        bias: b,
    }
}

/// A confidence interval for an empirical mutual information (§4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiBounds {
    /// Sample MI `I_S = H_S(α_t) + H_S(α) − H_S(α_t, α)`.
    pub sample_mi: f64,
    /// Lower bound `I̲ = max(H̲_t + H̲_α − H̄_{t,α}, 0)`.
    pub lower: f64,
    /// Upper bound `Ī = H̄_t + H̄_α − H̲_{t,α}`.
    pub upper: f64,
    /// The shared deviation radius λ (same `m`, `n`, `p` for every
    /// sampled entropy).
    pub lambda: f64,
    /// The bias terms the width pays: `b' = b(α_t) + b(α) + b(α_t, α)`,
    /// or `b(α_t, α)` alone when the marginals are exact.
    pub bias_total: f64,
}

impl MiBounds {
    /// The point estimate `Î = (I̲ + Ī)/2`.
    pub fn point_estimate(&self) -> f64 {
        0.5 * (self.lower + self.upper)
    }

    /// Interval width `Ī − I̲` (≤ `6λ + b'`, or `2λ + b(α_t, α)` with
    /// exact marginals; see module docs).
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }
}

/// Builds the §4.1 MI interval from the three sample entropies.
///
/// * `h_t`, `h_a`, `h_ta` — sample entropies of the target attribute, the
///   candidate attribute, and their pair,
/// * `u_t`, `u_a` — support sizes; the joint support is bounded by
///   `ū = u_t · u_a` (the paper's worst-case bound, since tracking exact
///   pair supports for all attribute pairs is impractical),
/// * `m`, `n`, `p` — as in [`entropy_bounds`]. Note the *caller* is
///   responsible for budgeting `p` across the three applications of
///   Lemma 3 (the algorithms use `p'_f = p_f / (3·i_max·(h−1))`).
#[allow(clippy::too_many_arguments)]
pub fn mi_bounds(
    h_t: f64,
    h_a: f64,
    h_ta: f64,
    u_t: u64,
    u_a: u64,
    m: u64,
    n: u64,
    p: f64,
) -> MiBounds {
    let lam = lambda(m, n, p);
    let b_t = bias(u_t, m, n);
    let b_a = bias(u_a, m, n);
    let u_pair = u_t.saturating_mul(u_a);
    let b_ta = bias(u_pair, m, n);

    let lower_t = (h_t - lam).max(0.0);
    let lower_a = (h_a - lam).max(0.0);
    let lower_ta = (h_ta - lam).max(0.0);
    let upper_t = h_t + lam + b_t;
    let upper_a = h_a + lam + b_a;
    let upper_ta = h_ta + lam + b_ta;

    let lower = (lower_t + lower_a - upper_ta).max(0.0);
    let upper = (upper_t + upper_a - lower_ta).max(lower);
    MiBounds {
        sample_mi: (h_t + h_a - h_ta).max(0.0),
        lower,
        upper,
        lambda: lam,
        bias_total: b_t + b_a + b_ta,
    }
}

/// Builds the §4.1 MI interval when both marginal entropies are exact:
///
/// ```text
/// I ∈ [ max(H_t + H_α − (H_S(α_t, α) + λ + b(α_t, α)), 0),
///       H_t + H_α − max(H_S(α_t, α) − λ, 0) ]
/// ```
///
/// * `h_t`, `h_a` — the *exact* entropies `H_D(α_t)` and `H_D(α)`,
/// * `h_ta` — the pair's sample joint entropy `H_S(α_t, α)`,
/// * `u_t`, `u_a`, `m`, `n`, `p` — as in [`mi_bounds`]; `p` now budgets
///   one Lemma-3 application per candidate (the joint's), not three.
///
/// The width is `2λ + b(α_t, α)` unless a clamp engages, and it collapses
/// onto `H_t + H_α − H_S(α_t, α)` at `M = N`.
///
/// ```
/// use swope_estimate::bounds::{mi_bounds, mi_bounds_exact_marginals};
///
/// let (m, n, p) = (1 << 14, 1 << 22, 1e-6);
/// let exact = mi_bounds_exact_marginals(2.0, 3.0, 4.2, 20, 40, m, n, p);
/// assert!((exact.width() - (2.0 * exact.lambda + exact.bias_total)).abs() < 1e-9);
/// // A third of the sampled width at the same budget, bias aside.
/// let sampled = mi_bounds(2.0, 3.0, 4.2, 20, 40, m, n, p);
/// assert!(exact.width() < sampled.width());
/// ```
#[allow(clippy::too_many_arguments)]
pub fn mi_bounds_exact_marginals(
    h_t: f64,
    h_a: f64,
    h_ta: f64,
    u_t: u64,
    u_a: u64,
    m: u64,
    n: u64,
    p: f64,
) -> MiBounds {
    let joint = entropy_bounds(h_ta, m, n, u_t.saturating_mul(u_a), p);
    let lower = (h_t + h_a - joint.upper).max(0.0);
    let upper = (h_t + h_a - joint.lower).max(lower);
    MiBounds {
        sample_mi: (h_t + h_a - h_ta).max(0.0),
        lower,
        upper,
        lambda: joint.lambda,
        bias_total: joint.bias,
    }
}

/// Lemma 4 for an interval `w·λ + Σ_i b(u_i)` wide: the sample size
/// `M*` from which on, at budget `p`, the width is at most `κ`:
///
/// ```text
/// M* = N·(w·log2(N)·sqrt(2·ln(2/p)·N/(N−1/2)) + Σ_i u_i)² / ((N−1)·κ²)
/// ```
///
/// `w = 2` over one support is the paper's `2λ + b(α)`; §4.1's MI
/// interval is `w = 6` over `u_t`, `u_α` and `u_t·u_α`, and with exact
/// marginals `w = 2` over `u_t·u_α` alone. Each term bounds its part
/// times `sqrt(N/((N−1)·M))`: `λ` through `β ≤ 2·log2(M)/M` (true from
/// `M = 4`), and `b(u)` through `ln(1+x) ≤ √x` and `√(u−1) ≤ u·ln 2`
/// (`docs/THEORY.md` §6).
///
/// The result lies in `[min(4, n), n]` (a full scan has width 0).
pub fn sample_size_for_width(kappa: f64, n: u64, w: f64, supports: &[u64], p: f64) -> u64 {
    if n <= 1 || kappa <= 0.0 {
        return n;
    }
    let nf = n as f64;
    let lambdas = w * nf.log2() * (2.0 * (2.0 / p).ln() * nf / (nf - 0.5)).sqrt();
    let term = lambdas + supports.iter().map(|&u| u as f64).sum::<f64>();
    let m = nf * term * term / ((nf - 1.0) * kappa * kappa);
    if !m.is_finite() || m >= nf {
        n
    } else {
        (m.ceil() as u64).clamp(4.min(n), n)
    }
}

/// The paper's initial sample size
/// `M0 = log(h·log N / p_f)·log2²(N) / log2²(u_max)` (§3.1) — the minimum
/// sample the complexity bound needs when the k-th score takes its largest
/// possible value `log2(u_max)` and `ε = 1`.
///
/// Clamped to `[32, n]`: the concentration machinery is vacuous below a few
/// dozen records, and sampling more than `N` is meaningless.
pub fn initial_sample_size(n: u64, h: usize, p_f: f64, u_max: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let nf = (n as f64).max(2.0);
    let log2n = nf.log2();
    let log2umax = (u_max.max(2) as f64).log2();
    let inner = ((h.max(1) as f64) * log2n / p_f).max(std::f64::consts::E);
    let m0 = inner.ln() * log2n * log2n / (log2umax * log2umax);
    (m0.ceil() as u64).clamp(32.min(n), n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_matches_formula_and_decays() {
        let m = 100u64;
        let expected = (100.0f64 / 99.0).log2() + 99.0f64.log2() / 100.0;
        assert!((beta(m) - expected).abs() < 1e-12);
        assert!(beta(1000) < beta(100));
        assert!(beta(1_000_000) < beta(1000));
    }

    #[test]
    fn beta_degenerate_samples_are_infinite() {
        assert!(beta(0).is_infinite());
        assert!(beta(1).is_infinite());
        assert!(beta(2).is_finite());
    }

    #[test]
    fn lambda_is_zero_at_full_sample() {
        assert_eq!(lambda(1000, 1000, 0.01), 0.0);
        assert_eq!(lambda(2000, 1000, 0.01), 0.0);
    }

    #[test]
    fn lambda_shrinks_with_sample_size() {
        let n = 1_000_000;
        let p = 1e-6;
        let l1 = lambda(1_000, n, p);
        let l2 = lambda(10_000, n, p);
        let l3 = lambda(100_000, n, p);
        assert!(l1 > l2 && l2 > l3, "λ must shrink: {l1} {l2} {l3}");
        assert!(l3 > 0.0);
    }

    #[test]
    fn lambda_grows_as_p_shrinks() {
        let n = 100_000;
        assert!(lambda(1000, n, 1e-9) > lambda(1000, n, 1e-3));
    }

    #[test]
    #[should_panic(expected = "failure probability")]
    fn lambda_rejects_bad_p() {
        lambda(10, 100, 0.0);
    }

    #[test]
    fn bias_zero_at_full_sample_and_positive_otherwise() {
        assert_eq!(bias(10, 500, 500), 0.0);
        assert!(bias(10, 100, 500) > 0.0);
        assert!(bias(10, 0, 500).is_infinite());
        assert_eq!(bias(10, 0, 1), 0.0); // n<=1 convention
    }

    #[test]
    fn bias_monotone_in_support_and_sample() {
        let (m, n) = (1000, 100_000);
        assert!(bias(100, m, n) > bias(10, m, n));
        assert!(bias(10, m, n) > bias(10, 10 * m, n));
        // u = 1 (constant attribute): zero bias.
        assert_eq!(bias(1, m, n), 0.0);
    }

    #[test]
    fn entropy_bounds_bracket_and_width_identity() {
        let (m, n, u, p) = (1024u64, 1 << 20, 50u64, 1e-4);
        let h_s = 3.7;
        let b = entropy_bounds(h_s, m, n, u, p);
        assert!(b.lower <= h_s && h_s <= b.upper);
        // Width identity (lower clamp not engaged for this h_s).
        assert!((b.width() - (2.0 * b.lambda + b.bias)).abs() < 1e-12);
        assert!((b.point_estimate() - (b.lower + b.upper) / 2.0).abs() < 1e-15);
    }

    #[test]
    fn entropy_bounds_lower_clamps_at_zero() {
        let b = entropy_bounds(0.01, 64, 1 << 20, 1000, 1e-6);
        assert_eq!(b.lower, 0.0);
        assert!(b.upper > 0.0);
    }

    #[test]
    fn entropy_bounds_collapse_at_full_sample() {
        let b = entropy_bounds(2.5, 1000, 1000, 50, 1e-4);
        assert_eq!(b.lower, 2.5);
        assert_eq!(b.upper, 2.5);
        assert_eq!(b.width(), 0.0);
    }

    #[test]
    fn mi_bounds_bracket_sample_mi_and_match_width_bound() {
        let (m, n) = (4096u64, 1 << 22);
        let p = 1e-5;
        let (h_t, h_a, h_ta) = (2.0, 3.0, 4.2);
        let b = mi_bounds(h_t, h_a, h_ta, 20, 40, m, n, p);
        assert!(b.lower <= b.sample_mi + 1e-12);
        assert!(b.sample_mi <= b.upper + 1e-12);
        // Width is at most 6λ + b' (equality unless clamps engaged).
        assert!(b.width() <= 6.0 * b.lambda + b.bias_total + 1e-9);
    }

    #[test]
    fn mi_bounds_width_identity_without_clamps() {
        // Large sample entropies keep all clamps disengaged.
        let b = mi_bounds(5.0, 6.0, 8.0, 40, 60, 1 << 16, 1 << 24, 1e-4);
        assert!((b.width() - (6.0 * b.lambda + b.bias_total)).abs() < 1e-9);
    }

    #[test]
    fn mi_bounds_collapse_at_full_sample() {
        let b = mi_bounds(2.0, 3.0, 4.0, 10, 10, 500, 500, 1e-4);
        assert!((b.lower - 1.0).abs() < 1e-12);
        assert!((b.upper - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mi_bounds_nonnegative_lower() {
        // Very small MI with wide bounds: lower must clamp at 0.
        let b = mi_bounds(1.0, 1.0, 1.99, 100, 1000, 1 << 20, 1 << 20, 1e-3);
        assert!(b.lower >= 0.0);
    }

    #[test]
    fn exact_marginal_mi_width_is_two_lambda_plus_joint_bias() {
        // Large entropies keep both clamps disengaged.
        let (m, n, p) = (1 << 16, 1 << 24, 1e-4);
        let b = mi_bounds_exact_marginals(5.0, 6.0, 8.0, 40, 60, m, n, p);
        assert_eq!(b.bias_total, bias(40 * 60, m, n));
        assert!((b.width() - (2.0 * b.lambda + b.bias_total)).abs() < 1e-12);
        assert!(b.lower <= b.sample_mi && b.sample_mi <= b.upper);
    }

    #[test]
    fn exact_marginal_mi_collapses_at_full_sample() {
        let b = mi_bounds_exact_marginals(2.0, 3.0, 4.0, 10, 10, 500, 500, 1e-4);
        assert_eq!((b.lower, b.upper, b.width()), (1.0, 1.0, 0.0));
        assert_eq!((b.lambda, b.bias_total), (0.0, 0.0));
    }

    #[test]
    fn exact_marginal_mi_brackets_the_exact_value_on_a_small_dataset() {
        use crate::entropy::entropy_from_counts;
        // 4 096 rows of a target and a noisy copy; every prefix of one
        // fixed row permutation is a without-replacement sample.
        let n = 4_096u64;
        let rows: Vec<(u32, u32)> = (0..n)
            .map(|r| {
                let t = (r * 7 % 8) as u32;
                (t, if r % 5 == 0 { (r % 3) as u32 } else { t % 4 })
            })
            .collect();
        let joint_entropy = |rows: &[(u32, u32)]| {
            let mut counts = vec![0u64; 32];
            for &(t, a) in rows {
                counts[(t * 4 + a) as usize] += 1;
            }
            entropy_from_counts(&counts)
        };
        let marginal = |pick: fn(&(u32, u32)) -> u32, u: usize| {
            let mut counts = vec![0u64; u];
            rows.iter().for_each(|row| counts[pick(row) as usize] += 1);
            entropy_from_counts(&counts)
        };
        let (h_t, h_a) = (marginal(|r| r.0, 8), marginal(|r| r.1, 4));
        let exact = h_t + h_a - joint_entropy(&rows);
        let mut order: Vec<usize> = (0..n as usize).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        for m in [64u64, 256, 1_024, 4_096] {
            let sample: Vec<(u32, u32)> = order[..m as usize].iter().map(|&i| rows[i]).collect();
            let b = mi_bounds_exact_marginals(h_t, h_a, joint_entropy(&sample), 8, 4, m, n, 1e-3);
            assert!(b.lower <= exact + 1e-12 && exact <= b.upper + 1e-12, "M = {m}: {b:?}");
        }
    }

    #[test]
    fn sample_size_for_width_achieves_the_width() {
        // Lemma 4's guarantee: from M = M* on, w·λ + Σ b(u_i) ≤ κ — for
        // one entropy, §4.1's MI interval, and MI on exact marginals.
        let mut constrained = 0;
        for n in [4_000u64, 201_608, 1 << 22, 31_290_943] {
            for u in [2u64, 16, 1_000] {
                let intervals: [(f64, &[u64]); 3] =
                    [(2.0, &[u]), (6.0, &[u, u, u * u]), (2.0, &[u * u])];
                for (w, supports) in intervals {
                    for p in [1e-3, 1e-6, 1e-10] {
                        for kappa in [0.05, 0.2, 0.5, 1.0, 3.0] {
                            let m = sample_size_for_width(kappa, n, w, supports, p);
                            if m >= n {
                                continue;
                            }
                            constrained += 1;
                            for m in [m, m + m / 3, 2 * m] {
                                let bias: f64 = supports.iter().map(|&u| bias(u, m, n)).sum();
                                let width = w * lambda(m, n, p) + bias;
                                let at = format!("n {n}, w {w}, {supports:?}, p {p}, M {m}");
                                assert!(width <= kappa, "κ {kappa}: {at} gives width {width}");
                            }
                        }
                    }
                }
            }
        }
        assert!(constrained > 100, "only {constrained} grid points have M* < n");
    }

    #[test]
    fn sample_size_monotone_in_kappa() {
        let n = 1 << 22;
        let m_loose = sample_size_for_width(1.0, n, 2.0, &[100], 1e-6);
        let m_tight = sample_size_for_width(0.1, n, 2.0, &[100], 1e-6);
        assert!(m_tight >= m_loose);
    }

    #[test]
    fn sample_size_caps_at_n() {
        assert_eq!(sample_size_for_width(1e-12, 1000, 2.0, &[100], 1e-6), 1000);
        assert_eq!(sample_size_for_width(0.0, 1000, 2.0, &[100], 1e-6), 1000);
        assert_eq!(sample_size_for_width(0.5, 1, 2.0, &[100], 1e-6), 1);
    }

    #[test]
    fn initial_sample_size_is_sane() {
        let n = 31_290_943u64; // pus dataset size
        let m0 = initial_sample_size(n, 179, 1.0 / n as f64, 1000);
        assert!(m0 >= 32);
        assert!(m0 < n / 10, "M0 {m0} should be far below N");
        // Tiny populations clamp to N.
        assert_eq!(initial_sample_size(10, 5, 0.01, 4), 10);
        assert_eq!(initial_sample_size(0, 5, 0.01, 4), 0);
    }

    #[test]
    fn initial_sample_size_shrinks_with_u_max() {
        let n = 1 << 24;
        let a = initial_sample_size(n, 100, 1e-6, 4);
        let b = initial_sample_size(n, 100, 1e-6, 1024);
        assert!(a > b, "higher u_max lowers the required M0: {a} vs {b}");
    }
}
