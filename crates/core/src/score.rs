//! Scoring and recency decay (paper §II, Eq. 1).
//!
//! The paper scores a document as `S(q,d) = c(q,d) / e^(−λ·Δτ_d)` where
//! `Δτ_d` is the arrival time of `d` relative to a landmark. Dividing by
//! `e^(−λΔτ)` *inflates newer documents*, which is the order-preserving form
//! of exponential decay: at any instant, ranking by `S` equals ranking by
//! `c·e^(−λ·age)`, but `S` never changes once assigned — so stored results
//! stay valid as time passes and only document arrivals trigger work.
//!
//! Because the inflation factor grows without bound, the landmark must
//! occasionally be advanced and all stored scores rescaled by a common
//! positive factor (an order-preserving operation). [`DecayModel`] owns that
//! bookkeeping.

use ctk_common::Timestamp;

/// Default headroom: renormalize when `λ·Δτ` exceeds this exponent. `e^60`
/// ≈ 1.1e26 keeps every product comfortably inside `f64` range while making
/// renormalizations rare.
pub const DEFAULT_MAX_EXPONENT: f64 = 60.0;

/// Exponential recency model with landmark renormalization.
#[derive(Debug, Clone)]
pub struct DecayModel {
    lambda: f64,
    landmark: Timestamp,
    max_exponent: f64,
}

impl DecayModel {
    /// `lambda >= 0`; `lambda == 0` disables decay entirely (pure cosine).
    pub fn new(lambda: f64) -> Self {
        assert!(lambda >= 0.0 && lambda.is_finite(), "lambda must be finite and >= 0");
        DecayModel { lambda, landmark: 0.0, max_exponent: DEFAULT_MAX_EXPONENT }
    }

    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    #[inline]
    pub fn landmark(&self) -> Timestamp {
        self.landmark
    }

    /// The per-document pruning target `θ_d = e^(−λ·Δτ_d)` (the module docs
    /// derive it from Eq. 1): document `d` enters query `q` iff
    /// `Σ f·u ≥ θ_d`. Always in `(0, 1]` for `τ ≥ landmark`.
    #[inline]
    pub fn theta(&self, arrival: Timestamp) -> f64 {
        (-self.lambda * (arrival - self.landmark).max(0.0)).exp()
    }

    /// The inflation factor `1/θ_d` applied to raw cosine scores.
    #[inline]
    pub fn amplification(&self, arrival: Timestamp) -> f64 {
        (self.lambda * (arrival - self.landmark).max(0.0)).exp()
    }

    /// True when the inflation exponent has outgrown the headroom and a
    /// landmark renormalization is due.
    #[inline]
    pub fn needs_renorm(&self, arrival: Timestamp) -> bool {
        self.lambda * (arrival - self.landmark) > self.max_exponent
    }

    /// Advance the landmark to `arrival` and return the factor `r < 1` by
    /// which **all stored scores (and thresholds) must be multiplied** to
    /// stay consistent. Relative order of scores is unchanged.
    #[must_use = "the returned factor must be applied to every stored score"]
    pub fn renormalize(&mut self, arrival: Timestamp) -> f64 {
        let r = (-self.lambda * (arrival - self.landmark).max(0.0)).exp();
        self.landmark = arrival.max(self.landmark);
        r
    }

    /// Reinstate a landmark captured from another instance (snapshot
    /// restore). Stored scores are expressed relative to the landmark, so a
    /// restored engine must adopt the snapshot's landmark *before* seeding
    /// any scores — otherwise old-frame scores get compared (and later
    /// renormalized) in the new frame and thresholds silently corrupt.
    pub fn restore_landmark(&mut self, landmark: Timestamp) {
        assert!(landmark.is_finite() && landmark >= 0.0, "landmark must be finite and >= 0");
        self.landmark = landmark;
    }

    /// Override the renormalization headroom (tests use small values to
    /// exercise the renorm path frequently).
    pub fn with_max_exponent(mut self, max_exponent: f64) -> Self {
        assert!(max_exponent > 0.0);
        self.max_exponent = max_exponent;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_decreases_with_time() {
        let d = DecayModel::new(0.1);
        assert!((d.theta(0.0) - 1.0).abs() < 1e-12);
        assert!(d.theta(10.0) < d.theta(5.0));
        assert!((d.theta(10.0) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn amplification_is_inverse_theta() {
        let d = DecayModel::new(0.05);
        for t in [0.0, 3.0, 77.7] {
            assert!((d.theta(t) * d.amplification(t) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn lambda_zero_disables_decay() {
        let d = DecayModel::new(0.0);
        assert_eq!(d.theta(1e9), 1.0);
        assert_eq!(d.amplification(1e9), 1.0);
        assert!(!d.needs_renorm(1e12));
    }

    #[test]
    fn renormalization_preserves_qualify_test() {
        let mut d = DecayModel::new(0.01).with_max_exponent(5.0);
        // A document scored before the renorm.
        let s_old = 0.8 * d.amplification(400.0); // exponent 4.0
        assert!(d.needs_renorm(600.0));
        let r = d.renormalize(600.0);
        assert!(r < 1.0);
        let s_rescaled = s_old * r;
        // The same document scored directly under the new landmark
        // (τ < landmark clamps).
        let s_fresh = 0.8 * d.amplification(400.0) * d.theta(400.0);
        // Direct algebra: s under new landmark = 0.8·e^{0.01·(400−600)}.
        let expect = 0.8 * (0.01f64 * (400.0 - 600.0)).exp();
        assert!((s_rescaled - expect).abs() < 1e-12, "{s_rescaled} vs {expect}");
        let _ = s_fresh;
    }

    #[test]
    fn needs_renorm_threshold() {
        let d = DecayModel::new(1.0).with_max_exponent(10.0);
        assert!(!d.needs_renorm(10.0));
        assert!(d.needs_renorm(10.1));
    }

    #[test]
    fn pre_landmark_arrivals_are_clamped() {
        let mut d = DecayModel::new(0.5);
        let _ = d.renormalize(100.0);
        assert_eq!(d.theta(50.0), 1.0, "stale arrival clamps to landmark");
        assert_eq!(d.amplification(50.0), 1.0);
    }

    #[test]
    #[should_panic]
    fn negative_lambda_rejected() {
        let _ = DecayModel::new(-0.1);
    }

    #[test]
    fn restore_landmark_matches_original_frame() {
        let mut original = DecayModel::new(0.1).with_max_exponent(5.0);
        let _ = original.renormalize(80.0);
        let mut restored = DecayModel::new(0.1);
        restored.restore_landmark(original.landmark());
        assert_eq!(restored.landmark(), 80.0);
        assert_eq!(original.theta(90.0), restored.theta(90.0));
        assert_eq!(original.amplification(90.0), restored.amplification(90.0));
    }

    #[test]
    #[should_panic]
    fn restore_landmark_rejects_non_finite() {
        DecayModel::new(0.1).restore_landmark(f64::NAN);
    }
}
