//! Rényi-DP curves for the Gaussian mechanism.
//!
//! A Gaussian mechanism releasing `f(G) + N(0, (Delta sigma)^2 I)` for an
//! `L2`-sensitivity-`Delta` function satisfies `(alpha, alpha/(2 sigma^2))`-
//! RDP for every `alpha > 1` (Section II-C of the paper). Note the curve
//! depends only on the *noise multiplier* `sigma = noise_std / Delta`:
//! AdvSGM's batch update adds `N(0, (B C sigma)^2)` to a sum of sensitivity
//! `B C`, so its per-step curve is `alpha/(2 sigma^2)` regardless of `B`, `C`.

use crate::error::PrivacyError;

/// The default integer order grid used throughout the workspace.
///
/// Theorem 4 (subsampling) requires integer orders; this grid covers the
/// regimes where the optimum lands for all paper configurations.
pub fn default_alpha_grid() -> Vec<usize> {
    let mut g: Vec<usize> = (2..=64).collect();
    g.extend([80, 96, 128, 192, 256]);
    g
}

/// The RDP curve of a Gaussian mechanism with noise multiplier `sigma`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianRdp {
    noise_multiplier: f64,
}

impl GaussianRdp {
    /// Creates the curve for noise multiplier `sigma > 0`.
    ///
    /// # Errors
    /// Returns [`PrivacyError::InvalidParameter`] for non-positive `sigma`.
    pub fn new(noise_multiplier: f64) -> Result<Self, PrivacyError> {
        if noise_multiplier.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || !noise_multiplier.is_finite()
        {
            return Err(PrivacyError::InvalidParameter {
                name: "noise_multiplier",
                reason: format!("must be positive and finite, got {noise_multiplier}"),
            });
        }
        Ok(Self { noise_multiplier })
    }

    /// The noise multiplier `sigma`.
    pub fn noise_multiplier(&self) -> f64 {
        self.noise_multiplier
    }

    /// `eps(alpha) = alpha / (2 sigma^2)` for `alpha > 1`.
    ///
    /// # Panics
    /// Panics (debug) if `alpha <= 1`.
    #[inline]
    pub fn epsilon(&self, alpha: f64) -> f64 {
        debug_assert!(alpha > 1.0, "RDP order must exceed 1, got {alpha}");
        alpha / (2.0 * self.noise_multiplier * self.noise_multiplier)
    }

    /// Evaluates the curve over an integer order grid.
    pub fn curve(&self, alphas: &[usize]) -> Vec<(usize, f64)> {
        alphas
            .iter()
            .map(|&a| (a, self.epsilon(a as f64)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_formula() {
        let g = GaussianRdp::new(5.0).unwrap();
        // alpha / (2 * 25) = alpha / 50
        assert!((g.epsilon(2.0) - 0.04).abs() < 1e-12);
        assert!((g.epsilon(10.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn epsilon_linear_in_alpha() {
        let g = GaussianRdp::new(2.0).unwrap();
        assert!((g.epsilon(8.0) - 4.0 * g.epsilon(2.0)).abs() < 1e-12);
    }

    #[test]
    fn larger_sigma_means_smaller_epsilon() {
        let weak = GaussianRdp::new(1.0).unwrap();
        let strong = GaussianRdp::new(10.0).unwrap();
        assert!(strong.epsilon(4.0) < weak.epsilon(4.0));
    }

    #[test]
    fn rejects_bad_sigma() {
        assert!(GaussianRdp::new(0.0).is_err());
        assert!(GaussianRdp::new(-1.0).is_err());
        assert!(GaussianRdp::new(f64::NAN).is_err());
    }

    #[test]
    fn curve_covers_grid() {
        let g = GaussianRdp::new(5.0).unwrap();
        let grid = default_alpha_grid();
        let c = g.curve(&grid);
        assert_eq!(c.len(), grid.len());
        assert_eq!(c[0].0, 2);
        assert_eq!(c.last().unwrap().0, 256);
    }

    #[test]
    fn default_grid_is_sorted_unique() {
        let g = default_alpha_grid();
        let mut s = g.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(g, s);
        assert!(g[0] >= 2);
    }
}
