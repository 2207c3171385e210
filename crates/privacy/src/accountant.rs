//! Online RDP accountant with the paper's stopping rule.
//!
//! Theorem 7: after `n_epoch * n_D` discriminator iterations, each consuming
//! one subsampled-Gaussian step at rate `B/|E|` (positive batch) and one at
//! rate `Bk/|V|` (negative batch), the discriminator is
//! `(alpha, n_epoch n_D (eps_{B/|E|}(alpha) + eps_{Bk/|V|}(alpha)))`-RDP;
//! the generator inherits the guarantee by post-processing (Theorem 2).
//!
//! The accountant accumulates per-step curves online and implements
//! Algorithm 3 lines 9–11: after each update compute
//! `delta_hat = get_privacy_spent(target epsilon)` and stop when
//! `delta_hat >= delta`.

use std::collections::HashMap;

use crate::conversion::{rdp_to_delta, rdp_to_epsilon};
use crate::error::PrivacyError;
use crate::rdp::default_alpha_grid;
use crate::subsampled::subsampled_gaussian_curve;

/// A frozen reading of an accountant's spend against a `(epsilon, delta)`
/// target — the accounting metadata that travels with a released artifact.
///
/// Post-processing is free under DP (Theorem 2), so once training ends this
/// snapshot is the *complete* privacy story of the released embeddings:
/// downstream consumers (the `.aemb` store, serving layers, evaluators) can
/// query the vectors freely while citing exactly these numbers. Produced by
/// [`RdpAccountant::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpendSnapshot {
    /// Mechanism invocations recorded so far.
    pub steps: u64,
    /// Tightest `epsilon` achievable at the target `delta`.
    pub epsilon_spent: f64,
    /// The RDP order at which `epsilon_spent` is attained.
    pub optimal_alpha: usize,
    /// Smallest achievable `delta` at the target `epsilon`
    /// (`delta_hat` in Algorithm 3's stopping rule).
    pub delta_spent: f64,
}

/// The complete serialisable state of an [`RdpAccountant`] — the
/// accumulated RDP curve plus the step counter.
///
/// `totals` are raw `f64` values; a caller persisting them bit-exactly
/// (e.g. the training checkpoint format in `advsgm-store`) restores an
/// accountant whose every future query — `epsilon`, `delta`, the
/// Algorithm-3 stopping rule — is bitwise-identical to the original's.
/// The per-`(sigma, gamma)` curve cache is *not* part of the state: it is
/// a pure function of its keys and rebuilds on demand.
#[derive(Debug, Clone, PartialEq)]
pub struct AccountantState {
    /// Mechanism invocations recorded so far.
    pub steps: u64,
    /// The integer RDP order grid.
    pub alphas: Vec<usize>,
    /// Accumulated `eps(alpha)` per grid order (same length as `alphas`).
    pub totals: Vec<f64>,
}

/// Online Rényi-DP accountant over the workspace's integer order grid.
#[derive(Debug, Clone)]
pub struct RdpAccountant {
    alphas: Vec<usize>,
    /// Accumulated `eps(alpha)` per grid order.
    totals: Vec<f64>,
    /// Cache of per-step curves keyed by (sigma, gamma) bits.
    cache: HashMap<(u64, u64), Vec<f64>>,
    steps_recorded: u64,
}

impl RdpAccountant {
    /// Creates an empty accountant on the default order grid.
    pub fn new() -> Self {
        Self::with_orders(default_alpha_grid())
    }

    /// Creates an accountant on a caller-supplied integer order grid.
    ///
    /// # Panics
    /// Panics if the grid is empty or contains an order below 2.
    pub fn with_orders(alphas: Vec<usize>) -> Self {
        assert!(!alphas.is_empty(), "order grid must be non-empty");
        assert!(
            alphas.iter().all(|&a| a >= 2),
            "all orders must be >= 2 for Theorem 4"
        );
        let n = alphas.len();
        Self {
            alphas,
            totals: vec![0.0; n],
            cache: HashMap::new(),
            steps_recorded: 0,
        }
    }

    /// Number of recorded mechanism invocations.
    pub fn steps(&self) -> u64 {
        self.steps_recorded
    }

    /// Records `count` invocations of a subsampled Gaussian mechanism with
    /// noise multiplier `sigma` and sampling rate `gamma` (clamped to 1).
    ///
    /// # Errors
    /// Propagates parameter validation from the amplification bound.
    pub fn record_subsampled_gaussian(
        &mut self,
        sigma: f64,
        gamma: f64,
        count: u64,
    ) -> Result<(), PrivacyError> {
        if count == 0 {
            return Ok(());
        }
        let gamma = gamma.min(1.0);
        let key = (sigma.to_bits(), gamma.to_bits());
        if !self.cache.contains_key(&key) {
            let curve = subsampled_gaussian_curve(sigma, gamma, &self.alphas)?;
            self.cache
                .insert(key, curve.into_iter().map(|(_, e)| e).collect());
        }
        let step = &self.cache[&key];
        for (t, &e) in self.totals.iter_mut().zip(step) {
            *t += e * count as f64;
        }
        self.steps_recorded += count;
        Ok(())
    }

    /// The accumulated RDP curve as `(alpha, eps)` pairs.
    pub fn curve(&self) -> Vec<(usize, f64)> {
        self.alphas
            .iter()
            .copied()
            .zip(self.totals.iter().copied())
            .collect()
    }

    /// Tightest `(epsilon, alpha)` at the target `delta`.
    ///
    /// # Errors
    /// Propagates conversion validation errors.
    pub fn epsilon(&self, delta: f64) -> Result<(f64, usize), PrivacyError> {
        rdp_to_epsilon(&self.curve(), delta)
    }

    /// The tightest `epsilon` achievable at the target `delta`, without the
    /// optimal order that [`Self::epsilon`] also reports — the quantity the
    /// paper's tables print.
    ///
    /// # Errors
    /// Propagates conversion validation errors (e.g. `delta` outside
    /// `(0, 1)`).
    ///
    /// # Examples
    /// ```
    /// use advsgm_privacy::RdpAccountant;
    ///
    /// let mut acc = RdpAccountant::new();
    /// // 100 subsampled-Gaussian steps at sigma = 5, gamma = 0.05.
    /// acc.record_subsampled_gaussian(5.0, 0.05, 100).unwrap();
    /// let eps = acc.epsilon_at(1e-5).unwrap();
    /// assert!(eps > 0.0);
    /// // More steps can only spend more budget.
    /// acc.record_subsampled_gaussian(5.0, 0.05, 900).unwrap();
    /// assert!(acc.epsilon_at(1e-5).unwrap() > eps);
    /// ```
    pub fn epsilon_at(&self, delta: f64) -> Result<f64, PrivacyError> {
        self.epsilon(delta).map(|(eps, _alpha)| eps)
    }

    /// Smallest achievable `delta` at the target `epsilon`
    /// (`get_privacy_spent` in Algorithm 3, line 10).
    ///
    /// # Errors
    /// Propagates conversion validation errors.
    pub fn delta(&self, epsilon: f64) -> Result<f64, PrivacyError> {
        rdp_to_delta(&self.curve(), epsilon)
    }

    /// Algorithm 3, line 11: returns `Err(BudgetExhausted)` once the
    /// achievable `delta_hat` at `target_epsilon` reaches `target_delta`.
    ///
    /// # Errors
    /// [`PrivacyError::BudgetExhausted`] when training must stop;
    /// validation errors for out-of-domain targets.
    pub fn check_budget(&self, target_epsilon: f64, target_delta: f64) -> Result<(), PrivacyError> {
        let delta_hat = self.delta(target_epsilon)?;
        if delta_hat >= target_delta {
            Err(PrivacyError::BudgetExhausted {
                delta_spent: delta_hat,
                delta_target: target_delta,
            })
        } else {
            Ok(())
        }
    }

    /// Freezes the current spend against a `(target_epsilon, target_delta)`
    /// pair into a [`SpendSnapshot`] — both conversion directions in one
    /// call, for stamping released artifacts with their accounting
    /// metadata.
    ///
    /// # Errors
    /// Propagates conversion validation errors (targets outside their
    /// domains).
    ///
    /// # Examples
    /// ```
    /// use advsgm_privacy::RdpAccountant;
    ///
    /// let mut acc = RdpAccountant::new();
    /// acc.record_subsampled_gaussian(5.0, 0.05, 200).unwrap();
    /// let snap = acc.snapshot(6.0, 1e-5).unwrap();
    /// assert_eq!(snap.steps, 200);
    /// assert_eq!(snap.epsilon_spent, acc.epsilon_at(1e-5).unwrap());
    /// assert_eq!(snap.delta_spent, acc.delta(6.0).unwrap());
    /// ```
    pub fn snapshot(
        &self,
        target_epsilon: f64,
        target_delta: f64,
    ) -> Result<SpendSnapshot, PrivacyError> {
        let (epsilon_spent, optimal_alpha) = self.epsilon(target_delta)?;
        let delta_spent = self.delta(target_epsilon)?;
        Ok(SpendSnapshot {
            steps: self.steps_recorded,
            epsilon_spent,
            optimal_alpha,
            delta_spent,
        })
    }

    /// Captures the accountant's complete state for checkpointing.
    ///
    /// # Examples
    /// ```
    /// use advsgm_privacy::{AccountantState, RdpAccountant};
    ///
    /// let mut acc = RdpAccountant::new();
    /// acc.record_subsampled_gaussian(5.0, 0.05, 40).unwrap();
    /// let state = acc.state();
    /// let restored = RdpAccountant::from_state(state).unwrap();
    /// assert_eq!(restored.delta(2.0).unwrap(), acc.delta(2.0).unwrap());
    /// ```
    pub fn state(&self) -> AccountantState {
        AccountantState {
            steps: self.steps_recorded,
            alphas: self.alphas.clone(),
            totals: self.totals.clone(),
        }
    }

    /// Rebuilds an accountant from a state captured by [`Self::state`].
    /// All subsequent queries and recordings are bitwise-identical to the
    /// accountant the state was taken from (the curve cache rebuilds
    /// deterministically on demand).
    ///
    /// # Errors
    /// [`PrivacyError::InvalidParameter`] when the grid is empty, contains
    /// an order below 2, mismatches `totals` in length, or any total is
    /// negative or non-finite.
    pub fn from_state(state: AccountantState) -> Result<Self, PrivacyError> {
        let bad = |reason: String| {
            Err(PrivacyError::InvalidParameter {
                name: "accountant_state",
                reason,
            })
        };
        if state.alphas.is_empty() {
            return bad("order grid must be non-empty".into());
        }
        if let Some(&a) = state.alphas.iter().find(|&&a| a < 2) {
            return bad(format!("all orders must be >= 2, got {a}"));
        }
        if state.alphas.len() != state.totals.len() {
            return bad(format!(
                "grid has {} orders but {} totals",
                state.alphas.len(),
                state.totals.len()
            ));
        }
        if let Some(&t) = state.totals.iter().find(|t| !(t.is_finite() && **t >= 0.0)) {
            return bad(format!("accumulated eps must be finite and >= 0, got {t}"));
        }
        Ok(Self {
            alphas: state.alphas,
            totals: state.totals,
            cache: HashMap::new(),
            steps_recorded: state.steps,
        })
    }

    /// Plans ahead: the largest number of *iterations* (each = one step at
    /// `gamma_pos` plus one at `gamma_neg`) that keeps
    /// `delta(target_epsilon) < target_delta`. Binary searches the additive
    /// composition, so cost is `O(log n * |grid|)`.
    ///
    /// # Errors
    /// Propagates parameter validation errors.
    pub fn max_supported_iterations(
        sigma: f64,
        gamma_pos: f64,
        gamma_neg: f64,
        target_epsilon: f64,
        target_delta: f64,
    ) -> Result<u64, PrivacyError> {
        let alphas = default_alpha_grid();
        let pos = subsampled_gaussian_curve(sigma, gamma_pos.min(1.0), &alphas)?;
        let neg = subsampled_gaussian_curve(sigma, gamma_neg.min(1.0), &alphas)?;
        let per_iter: Vec<(usize, f64)> = pos
            .iter()
            .zip(&neg)
            .map(|(&(a, ep), &(_, en))| (a, ep + en))
            .collect();
        let fits = |iters: u64| -> Result<bool, PrivacyError> {
            let scaled: Vec<(usize, f64)> = per_iter
                .iter()
                .map(|&(a, e)| (a, e * iters as f64))
                .collect();
            Ok(rdp_to_delta(&scaled, target_epsilon)? < target_delta)
        };
        if !fits(1)? {
            return Ok(0);
        }
        let mut lo = 1u64; // known to fit
        let mut hi = 2u64;
        while fits(hi)? {
            lo = hi;
            hi = hi.saturating_mul(2);
            if hi > 1 << 40 {
                return Ok(hi); // effectively unbounded for our workloads
            }
        }
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if fits(mid)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }
}

impl Default for RdpAccountant {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_accountant_spends_nothing() {
        let acc = RdpAccountant::new();
        assert_eq!(acc.steps(), 0);
        let d = acc.delta(1.0).unwrap();
        assert!(d < 1e-100, "fresh delta should be tiny, got {d}");
    }

    #[test]
    fn recording_accumulates_linearly() {
        let mut a = RdpAccountant::new();
        a.record_subsampled_gaussian(5.0, 0.05, 10).unwrap();
        let c10 = a.curve();
        a.record_subsampled_gaussian(5.0, 0.05, 10).unwrap();
        let c20 = a.curve();
        for (x, y) in c10.iter().zip(&c20) {
            assert!((y.1 - 2.0 * x.1).abs() < 1e-12);
        }
        assert_eq!(a.steps(), 20);
    }

    #[test]
    fn epsilon_at_matches_full_epsilon_query() {
        let mut a = RdpAccountant::new();
        a.record_subsampled_gaussian(5.0, 0.05, 250).unwrap();
        assert_eq!(a.epsilon_at(1e-5).unwrap(), a.epsilon(1e-5).unwrap().0);
    }

    #[test]
    fn epsilon_grows_with_steps() {
        let mut a = RdpAccountant::new();
        a.record_subsampled_gaussian(5.0, 0.05, 100).unwrap();
        let e1 = a.epsilon(1e-5).unwrap().0;
        a.record_subsampled_gaussian(5.0, 0.05, 900).unwrap();
        let e2 = a.epsilon(1e-5).unwrap().0;
        assert!(e2 > e1);
    }

    #[test]
    fn budget_check_trips_at_exhaustion() {
        let mut a = RdpAccountant::new();
        // Tiny sigma + full sampling: budget burns fast.
        a.record_subsampled_gaussian(0.5, 1.0, 10_000).unwrap();
        let err = a.check_budget(1.0, 1e-5).unwrap_err();
        assert!(matches!(err, PrivacyError::BudgetExhausted { .. }));
    }

    #[test]
    fn budget_check_passes_when_fresh() {
        let mut a = RdpAccountant::new();
        a.record_subsampled_gaussian(5.0, 0.01, 1).unwrap();
        a.check_budget(6.0, 1e-5).unwrap();
    }

    #[test]
    fn zero_count_is_noop() {
        let mut a = RdpAccountant::new();
        a.record_subsampled_gaussian(5.0, 0.1, 0).unwrap();
        assert_eq!(a.steps(), 0);
    }

    #[test]
    fn gamma_above_one_is_clamped() {
        let mut a = RdpAccountant::new();
        // Bk/|V| can exceed 1 on small graphs; the accountant clamps.
        a.record_subsampled_gaussian(5.0, 1.7, 5).unwrap();
        assert_eq!(a.steps(), 5);
    }

    #[test]
    fn max_iterations_consistent_with_online_accounting() {
        let sigma = 5.0;
        let (gp, gn) = (0.02, 0.2);
        let (eps, delta) = (2.0, 1e-5);
        let n = RdpAccountant::max_supported_iterations(sigma, gp, gn, eps, delta).unwrap();
        assert!(n > 0, "paper-scale config should afford at least one step");
        // Replay n iterations online: budget must still be open.
        let mut a = RdpAccountant::new();
        a.record_subsampled_gaussian(sigma, gp, n).unwrap();
        a.record_subsampled_gaussian(sigma, gn, n).unwrap();
        a.check_budget(eps, delta).unwrap();
        // One more iteration must close it.
        a.record_subsampled_gaussian(sigma, gp, 1).unwrap();
        a.record_subsampled_gaussian(sigma, gn, 1).unwrap();
        assert!(a.check_budget(eps, delta).is_err());
    }

    #[test]
    fn larger_epsilon_budget_allows_more_iterations() {
        let n1 = RdpAccountant::max_supported_iterations(5.0, 0.02, 0.2, 1.0, 1e-5).unwrap();
        let n6 = RdpAccountant::max_supported_iterations(5.0, 0.02, 0.2, 6.0, 1e-5).unwrap();
        assert!(n6 > n1, "n1={n1} n6={n6}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_grid_rejected() {
        RdpAccountant::with_orders(vec![]);
    }

    #[test]
    fn snapshot_agrees_with_point_queries() {
        let mut a = RdpAccountant::new();
        a.record_subsampled_gaussian(5.0, 0.05, 123).unwrap();
        let snap = a.snapshot(2.0, 1e-5).unwrap();
        assert_eq!(snap.steps, 123);
        let (eps, alpha) = a.epsilon(1e-5).unwrap();
        assert_eq!(snap.epsilon_spent, eps);
        assert_eq!(snap.optimal_alpha, alpha);
        assert_eq!(snap.delta_spent, a.delta(2.0).unwrap());
    }

    #[test]
    fn snapshot_rejects_out_of_domain_targets() {
        let mut a = RdpAccountant::new();
        a.record_subsampled_gaussian(5.0, 0.05, 1).unwrap();
        assert!(a.snapshot(2.0, 0.0).is_err());
    }
}
