//! Activation functions, including the paper's constrained sigmoid.
//!
//! AdvSGM uses the logistic sigmoid in three roles (Remark 2 of the paper):
//! the skip-gram link function `sigma(.)` in Eq. (2), the discriminant
//! function `F(.)` in Eqs. (1)/(3), and the generator activation `phi(.)`.
//!
//! Section IV-C replaces `F(.)` and `sigma(.)` by a *constrained sigmoid*
//! `S(x) = 1 / (1 + clipexp(e^{-x}; a, b))` whose inner exponential is
//! smoothly clipped to `[a, b]` by Algorithm 1 ("Exponential Clipping").
//! This bounds `S` to roughly `[1/(1+b), 1/(1+a)]`, so the adaptive module
//! weight `lambda = 1/S(.)` of Theorem 6 stays in `[~1+a, ~1+b]` — the
//! mechanism that keeps the adversarial gradient term well-scaled.

/// Numerically stable logistic sigmoid `1 / (1 + e^{-x})`.
///
/// Uses the two-branch formulation so that large `|x|` never evaluates
/// `exp` of a large positive argument.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// Numerically stable `ln(sigmoid(x))`.
///
/// `log_sigmoid(x) = -ln(1 + e^{-x}) = min(x, 0) - ln(1 + e^{-|x|})`.
#[inline]
pub fn log_sigmoid(x: f64) -> f64 {
    x.min(0.0) - (-x.abs()).exp().ln_1p()
}

/// Algorithm 1 of the paper: *exponential clipping*, a smooth clamp of `x`
/// into `[a, b]` with exponentially rounded corners.
///
/// Compared with a hard `clamp`, the corners have controllable sharpness:
/// the constant `c` is derived from `tanh` so that the transition width
/// scales with `(b - a)`. The function is monotone non-decreasing and
/// differentiable everywhere, and satisfies
/// `a <= softclip(x) <= b + 1/(2c)` style bounds (the corner terms overshoot
/// by at most `1/(2c)` on either side).
///
/// `lower`/`upper` are optional exactly as in the paper's pseudocode.
///
/// # Panics
/// Panics if both bounds are given and `lower >= upper`.
pub fn exp_clip(x: f64, lower: Option<f64>, upper: Option<f64>) -> f64 {
    // c_tanh = 2 / (e^2 + 1); c = 1 / (2 c_tanh); if both bounds: c /= (b-a)/2.
    let c_tanh = 2.0 / (2.0_f64.exp() + 1.0);
    let mut c = 1.0 / (2.0 * c_tanh);
    if let (Some(a), Some(b)) = (lower, upper) {
        assert!(a < b, "exp_clip: lower {a} must be < upper {b}");
        c /= (b - a) / 2.0;
    }
    exp_clip_with_sharpness(x, lower, upper, c)
}

/// Sharp-corner variant of [`exp_clip`]: identical construction but with the
/// corner-sharpness constant *multiplied* by `(b - a)/2` instead of divided,
/// so the corner overshoot `1/(2c)` *shrinks* as the clip range widens.
///
/// The paper's pseudocode prints the division (wide corners), but its
/// surrounding claims — "we fix a = 1e-5 to ensure that the upper bound of
/// S(x) approaches 1" and `S in [1/(1+b), 1/(1+a)]` — hold only for this
/// sharp variant (with wide corners the supremum of `S` is ~0.066 for
/// b = 120, nowhere near 1, and the skip-gram gradients through `S` shrink
/// by ~15x). [`ConstrainedSigmoid`] therefore uses this variant; DESIGN.md
/// records the discrepancy.
pub fn exp_clip_sharp(x: f64, lower: Option<f64>, upper: Option<f64>) -> f64 {
    let c_tanh = 2.0 / (2.0_f64.exp() + 1.0);
    let mut c = 1.0 / (2.0 * c_tanh);
    if let (Some(a), Some(b)) = (lower, upper) {
        assert!(a < b, "exp_clip_sharp: lower {a} must be < upper {b}");
        c *= (b - a) / 2.0;
    }
    exp_clip_with_sharpness(x, lower, upper, c)
}

/// Core smooth clamp with caller-supplied corner sharpness `c > 0`:
/// `clamp(x; a, b) + e^{-c|x-a|}/(2c) - e^{-c|x-b|}/(2c)`.
pub fn exp_clip_with_sharpness(x: f64, lower: Option<f64>, upper: Option<f64>, c: f64) -> f64 {
    debug_assert!(c > 0.0, "corner sharpness must be positive");
    let mut val = x;
    if let Some(b) = upper {
        val = val.min(b);
    }
    if let Some(a) = lower {
        val = val.max(a);
    }
    if let Some(a) = lower {
        // exp(-c |x - a|) / (2c); with x possibly infinite the exponent is
        // -inf and the term vanishes, which is the correct limit.
        val += (-c * (x - a).abs()).exp() / (2.0 * c);
    }
    if let Some(b) = upper {
        val -= (-c * (x - b).abs()).exp() / (2.0 * c);
    }
    val
}

/// The paper's constrained sigmoid `S(x) = 1 / (1 + clipexp(e^{-x}; a, b))`.
///
/// With the paper defaults `a = 1e-5`, `b = 120`, the output range is
/// approximately `[1/121, ~1]` and the inverse weight `lambda = 1/S(x)` is
/// bounded by `~1 + b` (Section IV-C, "Constrained Sigmoid").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstrainedSigmoid {
    /// Lower clip bound `a` for the inner exponential (`> 0`).
    pub a: f64,
    /// Upper clip bound `b` for the inner exponential (`> a`).
    pub b: f64,
}

impl ConstrainedSigmoid {
    /// Paper defaults: `a = 1e-5`, `b = 120` (Section VI-A).
    pub const PAPER_DEFAULT: ConstrainedSigmoid = ConstrainedSigmoid { a: 1e-5, b: 120.0 };

    /// Creates a constrained sigmoid with bounds `0 < a < b`.
    ///
    /// # Panics
    /// Panics if the bounds are not `0 < a < b`.
    pub fn new(a: f64, b: f64) -> Self {
        assert!(
            a > 0.0 && b > a,
            "constrained sigmoid requires 0 < a < b, got a={a}, b={b}"
        );
        Self { a, b }
    }

    /// Evaluates `S(x)` (using the sharp-corner clip; see
    /// [`exp_clip_sharp`] for why).
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        // e^{-x} with saturation: beyond ~709 the exponential overflows f64;
        // +inf flows through the clip to the upper bound, which is the limit.
        let e = if -x > 709.0 {
            f64::INFINITY
        } else {
            (-x).exp()
        };
        1.0 / (1.0 + exp_clip_sharp(e, Some(self.a), Some(self.b)))
    }

    /// The adaptive module weight `lambda = 1 / S(x)` of Theorem 6.
    #[inline]
    pub fn inverse_weight(&self, x: f64) -> f64 {
        1.0 / self.eval(x)
    }

    /// Derivative `dS/dx` computed analytically.
    ///
    /// `S = 1/(1+g(e^{-x}))` with `g = exp_clip`, so
    /// `dS/dx = g'(e^{-x}) * e^{-x} * S^2`.
    /// (Note the two minus signs — from `d e^{-x}/dx` and from
    /// `d(1/(1+u))/du` — cancel.)
    pub fn derivative(&self, x: f64) -> f64 {
        let e = if -x > 709.0 {
            f64::INFINITY
        } else {
            (-x).exp()
        };
        if !e.is_finite() {
            return 0.0; // saturated: S is flat at its lower bound
        }
        let s = self.eval(x);
        let gp = exp_clip_derivative(e, self.a, self.b);
        gp * e * s * s
    }

    /// Exact infimum of `S`: the limit as `x -> -inf`, where the inner
    /// exponential saturates at `b`, giving `1/(1+b)`.
    pub fn min_value(&self) -> f64 {
        1.0 / (1.0 + self.b)
    }

    /// Exact supremum of `S`: the limit as `x -> +inf`, where the inner
    /// exponential tends to `0` and the sharp clip evaluates to
    /// `softclip(0; a, b) ~ a + 1/(2c)`. For the paper's defaults this is
    /// ~0.996 — "the upper bound of S(x) approaches 1" as Section VI-A
    /// requires — and the adaptive weight `lambda = 1/S(.)` is bounded in
    /// `[1/max_value, 1 + b]`.
    pub fn max_value(&self) -> f64 {
        1.0 / (1.0 + exp_clip_sharp(0.0, Some(self.a), Some(self.b)))
    }
}

/// Derivative of [`exp_clip_sharp`] with both bounds present, used by
/// [`ConstrainedSigmoid::derivative`].
fn exp_clip_derivative(x: f64, a: f64, b: f64) -> f64 {
    let c_tanh = 2.0 / (2.0_f64.exp() + 1.0);
    let c = 1.0 / (2.0 * c_tanh) * ((b - a) / 2.0);
    // d/dx [ clamp(x) + e^{-c|x-a|}/(2c) - e^{-c|x-b|}/(2c) ]
    let clamp_term = if x > a && x < b { 1.0 } else { 0.0 };
    let sa = if x >= a { -1.0 } else { 1.0 }; // d|x-a|/dx has sign(x-a)
    let sb = if x >= b { -1.0 } else { 1.0 };
    let corner_a = sa * (-c * (x - a).abs()).exp() / 2.0;
    let corner_b = -sb * (-c * (x - b).abs()).exp() / 2.0;
    clamp_term + corner_a + corner_b
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    #[test]
    fn sigmoid_at_zero_is_half() {
        assert!((sigmoid(0.0) - 0.5).abs() < EPS);
    }

    #[test]
    fn sigmoid_symmetry() {
        for &x in &[0.1, 1.0, 5.0, 30.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < EPS, "x={x}");
        }
    }

    #[test]
    fn sigmoid_extremes_do_not_overflow() {
        assert_eq!(sigmoid(1e6), 1.0);
        assert_eq!(sigmoid(-1e6), 0.0);
        assert!(sigmoid(f64::MAX).is_finite());
    }

    #[test]
    fn log_sigmoid_matches_ln_of_sigmoid_in_safe_range() {
        for &x in &[-20.0, -1.0, 0.0, 1.0, 20.0] {
            assert!((log_sigmoid(x) - sigmoid(x).ln()).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn log_sigmoid_stable_for_large_negative() {
        // ln(sigmoid(-1000)) = -1000 - ln(1+e^{-1000}) ~= -1000
        let v = log_sigmoid(-1000.0);
        assert!((v + 1000.0).abs() < 1e-9);
    }

    #[test]
    fn exp_clip_is_identity_like_in_the_middle() {
        // Far from both corners the function is within corner overshoot of x.
        let v = exp_clip(60.0, Some(1e-5), Some(120.0));
        assert!((v - 60.0).abs() < 1e-6, "v={v}");
    }

    #[test]
    fn exp_clip_saturates_below() {
        let a = 1e-5;
        let b = 120.0;
        let v = exp_clip(-500.0, Some(a), Some(b));
        assert!((v - a).abs() < 1e-6, "v={v}");
    }

    #[test]
    fn exp_clip_saturates_above() {
        let v = exp_clip(1e9, Some(1e-5), Some(120.0));
        assert!((v - 120.0).abs() < 1e-6, "v={v}");
    }

    #[test]
    fn exp_clip_handles_infinity() {
        let v = exp_clip(f64::INFINITY, Some(1e-5), Some(120.0));
        assert!((v - 120.0).abs() < 1e-9);
    }

    #[test]
    fn exp_clip_monotone_on_grid() {
        let mut prev = f64::NEG_INFINITY;
        let mut x = -200.0;
        while x <= 400.0 {
            let v = exp_clip(x, Some(1e-5), Some(120.0));
            assert!(v >= prev - 1e-12, "not monotone at x={x}: {v} < {prev}");
            prev = v;
            x += 0.5;
        }
    }

    #[test]
    fn exp_clip_single_sided_bounds() {
        // Upper bound only: behaves like x for small x, saturates at b.
        let v = exp_clip(-50.0, None, Some(10.0));
        assert!((v + 50.0).abs() < 1e-6);
        let v = exp_clip(1e6, None, Some(10.0));
        assert!((v - 10.0).abs() < 1e-6);
        // Lower bound only.
        let v = exp_clip(50.0, Some(0.0), None);
        assert!((v - 50.0).abs() < 1e-6);
        let v = exp_clip(-1e6, Some(0.0), None);
        assert!(v.abs() < 1e-6);
    }

    #[test]
    fn exp_clip_no_bounds_is_identity() {
        assert_eq!(exp_clip(3.25, None, None), 3.25);
    }

    #[test]
    #[should_panic(expected = "must be <")]
    fn exp_clip_rejects_inverted_bounds() {
        exp_clip(0.0, Some(1.0), Some(0.5));
    }

    #[test]
    fn constrained_sigmoid_range_paper_defaults() {
        let s = ConstrainedSigmoid::PAPER_DEFAULT;
        // Strongly negative input -> inner exp huge -> clipped to b -> S ~ 1/(1+120)
        let lo = s.eval(-1000.0);
        assert!((lo - 1.0 / 121.0).abs() < 1e-6, "lo={lo}");
        // Strongly positive input -> inner exp ~0 -> sharp clip evaluates to
        // ~a + 1/(2c) ~ 0.004, so S approaches 1 (Section VI-A's claim).
        let hi = s.eval(1000.0);
        assert!(
            (hi - s.max_value()).abs() < 1e-9,
            "hi={hi} max={}",
            s.max_value()
        );
        assert!(hi > 0.95, "hi={hi}");
        assert!(hi > lo);
    }

    #[test]
    fn constrained_sigmoid_tracks_plain_sigmoid_in_the_interior() {
        // For x where e^{-x} lies inside (a, b) away from the sharp corners,
        // S(x) coincides with the ordinary sigmoid.
        let s = ConstrainedSigmoid::PAPER_DEFAULT;
        for &x in &[-4.0, -1.0, 0.0, 1.0, 4.0] {
            let diff = (s.eval(x) - sigmoid(x)).abs();
            assert!(diff < 0.01, "x={x}: S={} sigmoid={}", s.eval(x), sigmoid(x));
        }
    }

    #[test]
    fn constrained_sigmoid_monotone() {
        let s = ConstrainedSigmoid::new(1e-5, 120.0);
        let mut prev = -1.0;
        let mut x = -30.0;
        while x <= 30.0 {
            let v = s.eval(x);
            assert!(v >= prev - 1e-12, "x={x}");
            prev = v;
            x += 0.05;
        }
    }

    #[test]
    fn inverse_weight_bounded_by_one_plus_b() {
        let s = ConstrainedSigmoid::new(1e-5, 120.0);
        // The smooth corners overshoot by at most `1/(2c)` for the sharp
        // scaling (~0.004 at the paper defaults).
        let c_tanh = 2.0 / (2.0_f64.exp() + 1.0);
        let c = 1.0 / (2.0 * c_tanh) * ((120.0 - 1e-5) / 2.0);
        let corner_overshoot = 1.0 / (2.0 * c);
        for &x in &[-1e9, -100.0, -1.0, 0.0, 1.0, 100.0, 1e9] {
            let l = s.inverse_weight(x);
            assert!(l >= 0.9, "lambda too small at x={x}: {l}");
            assert!(
                l <= 1.0 + 120.0 + corner_overshoot + 1e-6,
                "lambda too large at x={x}: {l}"
            );
        }
    }

    #[test]
    fn constrained_sigmoid_is_a_squashed_sigmoid() {
        // S shares the sigmoid's monotone S-shape but is squashed into
        // [1/(1+b), 1/(1+softclip(0))]; it should cover most of that range.
        let s = ConstrainedSigmoid::new(1e-5, 120.0);
        let lo = s.eval(-40.0);
        let hi = s.eval(40.0);
        assert!((lo - s.min_value()).abs() < 1e-6, "lo={lo}");
        assert!((hi - s.max_value()).abs() < 1e-6, "hi={hi}");
        // Midpoint sits strictly between the two saturation levels.
        let mid = s.eval(0.0);
        assert!(mid > lo && mid < hi, "mid={mid} lo={lo} hi={hi}");
    }

    #[test]
    fn wider_b_lowers_the_floor_of_s() {
        // Table IV sweeps b in {40,...,140}; the direct effect of larger b is
        // a smaller minimum of S, hence a larger maximum adaptive weight.
        let floors: Vec<f64> = [40.0, 80.0, 120.0, 140.0]
            .iter()
            .map(|&b| ConstrainedSigmoid::new(1e-5, b).min_value())
            .collect();
        for w in floors.windows(2) {
            assert!(w[1] < w[0], "floors not decreasing: {floors:?}");
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let s = ConstrainedSigmoid::new(1e-5, 120.0);
        for &x in &[-4.0, -1.0, 0.0, 1.0, 4.0] {
            let h = 1e-6;
            let fd = (s.eval(x + h) - s.eval(x - h)) / (2.0 * h);
            let an = s.derivative(x);
            assert!((fd - an).abs() < 1e-5, "x={x}: fd={fd} an={an}");
        }
    }

    #[test]
    fn derivative_saturated_is_zero() {
        let s = ConstrainedSigmoid::new(1e-5, 120.0);
        assert_eq!(s.derivative(-2000.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "requires 0 < a < b")]
    fn constrained_sigmoid_rejects_bad_bounds() {
        ConstrainedSigmoid::new(2.0, 1.0);
    }

    #[test]
    fn min_max_value_bracket_observed_values() {
        let s = ConstrainedSigmoid::new(1e-5, 120.0);
        for &x in &[-1e3, -10.0, 0.0, 10.0, 1e3] {
            let v = s.eval(x);
            assert!(v >= s.min_value() - 1e-9, "x={x}");
            assert!(v <= s.max_value() + 1e-9, "x={x}");
        }
    }
}
