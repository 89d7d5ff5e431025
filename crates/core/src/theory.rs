//! Computable forms of the paper's accuracy guarantees (Sec. 6).
//!
//! Each bound is exposed as a plain function so tests and applications can
//! compare empirical error rates against the theory:
//!
//! * [`select_level`] — the Lemma-1 level-selection rule of Alg. 6;
//! * [`lemma1_failure_bound`] — the Chernoff tail of a level-`l` LSR
//!   estimate: `P[|res′ − res| ≥ ε·res] ≤ 2·exp(−ε²·res / (3·2^l))`;
//! * [`theorem_failure_bound`] — the Theorem 1–4 guarantee shared by all
//!   four estimator variants: `ε`-approximation holds with probability at
//!   least `1 − 4·exp(−ε²·ans² / (2·sum₀²))`;
//! * [`epsilon_for_confidence`] — the inverse: the ε needed for a desired
//!   success probability at a given `ans`/`sum₀` ratio;
//! * [`degraded_epsilon`] — the combined sampling + missing-mass bound a
//!   degraded-mode answer reports when only part of the federation's mass
//!   is reachable (DESIGN.md §5i).

/// The Lemma-1 level-selection rule:
/// `l = ⌊log₂(ε²·sum₀ / (3·ln(2/δ)))⌋`, floored at 0.
///
/// The caller clamps to the available forest depth (`LsrForest` does this
/// internally); this standalone form is what the provider uses to report
/// the level it *expects* the silo to use.
///
/// ```
/// use fedra_core::theory::select_level;
/// // ε = 0.1, δ = 0.01, sum₀ = 100 000 → level 5 (sample 1/32 of the data).
/// assert_eq!(select_level(0.1, 0.01, 100_000.0), 5);
/// // Tiny expected results always use the exact tree T₀.
/// assert_eq!(select_level(0.1, 0.01, 10.0), 0);
/// ```
pub fn select_level(epsilon: f64, delta: f64, sum0: f64) -> usize {
    assert!(
        epsilon > 0.0 && epsilon.is_finite(),
        "epsilon must be positive"
    );
    assert!(delta > 0.0 && delta < 1.0, "delta must lie in (0, 1)");
    if sum0 <= 0.0 {
        return 0;
    }
    let raw = (epsilon * epsilon * sum0 / (3.0 * (2.0 / delta).ln())).log2();
    if !raw.is_finite() || raw <= 0.0 {
        0
    } else {
        raw.floor() as usize
    }
}

/// Chernoff failure bound of a level-`l` LSR estimate of a local answer
/// `res`: `P[|res′ − res| > ε·res] ≤ 2·exp(−ε²·res / (3·2^l))`.
pub fn lemma1_failure_bound(epsilon: f64, level: usize, res: f64) -> f64 {
    if res <= 0.0 {
        return 1.0_f64.min(2.0); // vacuous: nothing to estimate
    }
    let bound = 2.0 * (-epsilon * epsilon * res / (3.0 * (1u64 << level.min(62)) as f64)).exp();
    bound.min(1.0)
}

/// The shared Theorem 1–4 failure bound:
/// `P[|ans′ − ans| ≥ ε·ans] ≤ 4·exp(−ε²·ans² / (2·sum₀²))`.
///
/// `ans` is the exact answer and `sum₀` the grid-cells upper envelope
/// (the aggregate over all cells intersecting `R`, which always dominates
/// `ans`). As the query radius grows, `ans/sum₀ → 1` and the bound
/// tightens — the mechanism behind the falling MRE curves of Fig. 3a.
pub fn theorem_failure_bound(epsilon: f64, ans: f64, sum0: f64) -> f64 {
    if ans <= 0.0 || sum0 <= 0.0 {
        return 1.0;
    }
    let ratio = ans / sum0;
    (4.0 * (-epsilon * epsilon * ratio * ratio / 2.0 * 1.0).exp()).min(1.0)
}

/// The smallest ε for which [`theorem_failure_bound`] drops below
/// `1 − confidence`: `ε = (sum₀/ans)·√(2·ln(4/(1−confidence)))`.
pub fn epsilon_for_confidence(confidence: f64, ans: f64, sum0: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&confidence),
        "confidence must lie in [0, 1)"
    );
    assert!(ans > 0.0 && sum0 > 0.0, "ans and sum0 must be positive");
    let delta = 1.0 - confidence;
    (sum0 / ans) * (2.0 * (4.0 / delta).ln()).sqrt()
}

/// The error bound of an answer assembled from cached fragments
/// (containment decomposition, DESIGN.md §5f).
///
/// For the monotone aggregates (COUNT/SUM/SUM_SQR) over disjoint
/// fragments `R = ⊎ Rᵢ`, each cached at relative error `εᵢ`:
/// `|ans′ − ans| = |Σ ansᵢ′ − Σ ansᵢ| ≤ Σ εᵢ·ansᵢ ≤ (max εᵢ)·Σ ansᵢ`,
/// so the assembled answer carries relative error at most `max εᵢ` — the
/// served bound is *computed* from the fragments' producer bounds, never
/// assumed. Returns `0.0` for an empty fragment list (an empty sum is
/// exact).
///
/// ```
/// use fedra_core::theory::containment_epsilon;
/// assert_eq!(containment_epsilon(&[0.0, 0.05, 0.02]), 0.05);
/// assert_eq!(containment_epsilon(&[]), 0.0);
/// ```
pub fn containment_epsilon(fragment_epsilons: &[f64]) -> f64 {
    fragment_epsilons.iter().copied().fold(0.0, f64::max)
}

/// Whether a cached answer produced at error `producer_epsilon` may serve
/// a query requesting `requested_epsilon` (the ε-containment rule): the
/// producer's guarantee must be at least as strong, i.e.
/// `producer_epsilon ≤ requested_epsilon`. `0.0` is the exact/degenerate
/// mode and serves everything.
///
/// ```
/// use fedra_core::theory::epsilon_serves;
/// assert!(epsilon_serves(0.0, 0.0));     // exact serves exact
/// assert!(epsilon_serves(0.05, 0.10));   // tighter serves looser
/// assert!(!epsilon_serves(0.10, 0.05));  // looser never serves tighter
/// ```
pub fn epsilon_serves(producer_epsilon: f64, requested_epsilon: f64) -> bool {
    producer_epsilon.is_finite()
        && requested_epsilon.is_finite()
        && producer_epsilon >= 0.0
        && producer_epsilon <= requested_epsilon
}

/// The combined sampling + missing-mass error bound of a degraded-mode
/// answer (DESIGN.md §5i), **anchored to the `sum₀` envelope**: the
/// degraded answer satisfies `|ans′ − ans| ≤ ε′·sum₀` (with the base
/// guarantee's own δ riding along when the backed share is itself
/// sampled).
///
/// When only a fraction `coverage ∈ [0, 1]` of the in-range grid mass
/// (measured from the per-silo grids `g_k`, which the provider holds
/// regardless of current reachability) is backed by live silo answers,
/// the remaining `1 − coverage` is filled from grid statistics alone.
/// Splitting the absolute error by mass share:
///
/// * the backed share is an ε-approximation of its slice `ans_R ≤
///   coverage·sum₀`, contributing at most `ε·coverage·sum₀`;
/// * the grid-filled share is exact on covered cells and off by at most
///   the full cell mass on boundary cells, so its error is bounded by its
///   entire grid mass, `(1 − coverage)·sum₀`.
///
/// Hence `ε′ = ε·coverage + (1 − coverage)`, clamped to `[ε, 1]`: full
/// coverage recovers the base guarantee, zero coverage is the vacuous
/// whole-envelope bound. Anchoring to `sum₀` rather than the (unknowable)
/// true answer is the same normalization every Sec. 6 bound uses — as
/// `ans/sum₀ → 1` (large ranges, the Fig. 3a regime) the bound approaches
/// a plain relative-error guarantee. The bound degrades *linearly* in the
/// missing mass — the same composition spirit as [`containment_epsilon`],
/// but over mass-weighted shares instead of disjoint fragments.
///
/// ```
/// use fedra_core::theory::degraded_epsilon;
/// // Full coverage: the base guarantee survives unchanged.
/// assert_eq!(degraded_epsilon(0.1, 1.0), 0.1);
/// // An exact fan-out missing 20% of the mass: ε′ = 0.2.
/// assert!((degraded_epsilon(0.0, 0.8) - 0.2).abs() < 1e-12);
/// // Nothing reachable: the bound is vacuous, never above 1.
/// assert_eq!(degraded_epsilon(0.1, 0.0), 1.0);
/// ```
pub fn degraded_epsilon(base_epsilon: f64, coverage: f64) -> f64 {
    let eps = base_epsilon.clamp(0.0, 1.0);
    let c = coverage.clamp(0.0, 1.0);
    (eps * c + (1.0 - c)).clamp(eps, 1.0)
}

/// Expected number of level-`l` samples falling inside the query range
/// when the exact local answer is `res`: `res / 2^l`. The Lemma-1 level
/// keeps this at ≈ `3·ln(2/δ)/ε²` regardless of silo size, which is why
/// the local query cost becomes O(log 1/ε).
pub fn expected_samples_in_range(res: f64, level: usize) -> f64 {
    res / (1u64 << level.min(62)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_level_matches_hand_computation() {
        // ε = 0.1, δ = 0.01 → 3·ln(200) ≈ 15.9; sum0 = 100 000 →
        // 0.01·100000/15.9 ≈ 62.9 → ⌊log₂⌋ = 5.
        assert_eq!(select_level(0.1, 0.01, 100_000.0), 5);
        assert_eq!(select_level(0.1, 0.01, 0.0), 0);
        assert_eq!(select_level(0.1, 0.01, 1.0), 0);
    }

    #[test]
    fn select_level_grows_with_sum0() {
        let l1 = select_level(0.1, 0.01, 1e4);
        let l2 = select_level(0.1, 0.01, 1e6);
        assert!(l2 > l1);
        // Doubling sum0 raises the level by exactly one (once past 0).
        let l = select_level(0.1, 0.01, 1e5);
        assert_eq!(select_level(0.1, 0.01, 2e5), l + 1);
    }

    #[test]
    fn lemma1_bound_respects_the_level_rule() {
        // At the selected level, the failure bound is ≤ δ (the derivation
        // of Lemma 1 picks l so that 2·exp(−ε²·res/(3·2^l)) ≤ δ).
        // The guarantee requires res ≥ 3·ln(2/δ)/ε² (≈1590 here): below
        // that even level 0 (no sampling at all in T₀ — the answer is
        // exact, the Chernoff model just can't see it) the analytic bound
        // is vacuous.
        let (eps, delta) = (0.1, 0.01);
        for res in [2e3, 1e4, 1e5, 1e6] {
            let l = select_level(eps, delta, res);
            let bound = lemma1_failure_bound(eps, l, res);
            assert!(
                bound <= delta + 1e-12,
                "res {res}: level {l} bound {bound} > δ {delta}"
            );
        }
    }

    #[test]
    fn lemma1_bound_monotone_in_level() {
        let b2 = lemma1_failure_bound(0.1, 2, 1e5);
        let b6 = lemma1_failure_bound(0.1, 6, 1e5);
        assert!(b6 > b2, "coarser levels must have weaker guarantees");
    }

    #[test]
    fn theorem_bound_tightens_with_radius() {
        // Larger ans/sum0 ratio (bigger query) → smaller failure bound,
        // the Fig. 3a mechanism.
        let loose = theorem_failure_bound(2.0, 100.0, 1000.0);
        let tight = theorem_failure_bound(2.0, 900.0, 1000.0);
        assert!(tight < loose);
        assert!(theorem_failure_bound(0.1, 0.0, 100.0) == 1.0);
    }

    #[test]
    fn theorem_bound_is_a_probability() {
        for eps in [0.01, 0.1, 1.0, 10.0] {
            for ratio in [0.1, 0.5, 0.9, 1.0] {
                let b = theorem_failure_bound(eps, ratio * 100.0, 100.0);
                assert!((0.0..=1.0).contains(&b));
            }
        }
    }

    #[test]
    fn epsilon_for_confidence_inverts_the_bound() {
        let (ans, sum0) = (800.0, 1000.0);
        for confidence in [0.5, 0.9, 0.99] {
            let eps = epsilon_for_confidence(confidence, ans, sum0);
            let bound = theorem_failure_bound(eps, ans, sum0);
            assert!(
                bound <= (1.0 - confidence) + 1e-9,
                "confidence {confidence}: bound {bound}"
            );
        }
    }

    #[test]
    fn expected_samples_track_the_level_rule() {
        // At the Lemma-1 level the expected in-range sample count is
        // pinned near 3·ln(2/δ)/ε² (within the factor-2 floor slack).
        let (eps, delta) = (0.1, 0.01);
        let target = 3.0 * (2.0f64 / delta).ln() / (eps * eps);
        for res in [1e4, 1e5, 1e6] {
            let l = select_level(eps, delta, res);
            let samples = expected_samples_in_range(res, l);
            assert!(
                samples >= target * 0.99 && samples <= target * 2.01,
                "res {res}: {samples} samples vs target {target}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn epsilon_for_confidence_rejects_one() {
        epsilon_for_confidence(1.0, 1.0, 1.0);
    }

    #[test]
    fn containment_epsilon_is_the_worst_fragment() {
        assert_eq!(containment_epsilon(&[]), 0.0);
        assert_eq!(containment_epsilon(&[0.0, 0.0]), 0.0);
        assert_eq!(containment_epsilon(&[0.02, 0.10, 0.05]), 0.10);
        // A max-composed bound never loosens by adding tighter fragments.
        assert_eq!(containment_epsilon(&[0.10, 0.0]), 0.10);
    }

    #[test]
    fn epsilon_containment_rule_is_one_sided() {
        assert!(epsilon_serves(0.0, 0.0));
        assert!(epsilon_serves(0.0, 0.5));
        assert!(epsilon_serves(0.05, 0.05));
        assert!(!epsilon_serves(0.051, 0.05));
        assert!(!epsilon_serves(f64::NAN, 0.05));
        assert!(!epsilon_serves(-0.1, 0.05));
    }

    #[test]
    fn degraded_epsilon_interpolates_between_base_and_vacuous() {
        // Monotone: less coverage never tightens the bound.
        let mut last = 0.0;
        for i in 0..=10 {
            let c = 1.0 - i as f64 / 10.0;
            let e = degraded_epsilon(0.1, c);
            assert!(e >= last - 1e-12, "coverage {c}: {e} < {last}");
            assert!((0.1..=1.0).contains(&e));
            last = e;
        }
        // A looser base guarantee never comes out tighter.
        assert!(degraded_epsilon(0.3, 0.5) > degraded_epsilon(0.1, 0.5));
        // Out-of-range inputs are clamped, not propagated.
        assert_eq!(degraded_epsilon(0.1, 2.0), 0.1);
        assert_eq!(degraded_epsilon(0.1, -1.0), 1.0);
        assert_eq!(degraded_epsilon(f64::INFINITY, 0.5), 1.0);
    }
}
