//! Model parameters and validation.

/// Errors when constructing model parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A parameter was outside its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// The offending value.
        value: f64,
        /// Human-readable constraint.
        constraint: &'static str,
    },
    /// Curve fitting did not converge or had insufficient data.
    FitFailed(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::InvalidParameter {
                name,
                value,
                constraint,
            } => {
                write!(f, "invalid {name} = {value}: must satisfy {constraint}")
            }
            ModelError::FitFailed(msg) => write!(f, "fit failed: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Parameters of the user-visitation model for a single page.
///
/// The model (paper Section 6) assumes:
/// * **Proposition 1 (popularity-equivalence)**: the page receives
///   `V(p,t) = r · P(p,t)` visits per unit time.
/// * **Proposition 2 (random-visit)**: each visit is made by a uniformly
///   random one of the `n` web users.
/// * The page's quality `Q(p)` is constant over time (Definition 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Page quality `Q(p) ∈ (0, 1]` — the probability a newly-aware user
    /// likes the page and links to it.
    pub quality: f64,
    /// Total number of web users `n`.
    pub num_users: f64,
    /// Visit-rate normalization `r`: visits per unit time per unit of
    /// popularity (`V = r·P`).
    pub visits_per_unit_time: f64,
    /// Initial popularity `P(p,0) ∈ (0, Q]` — the fraction of users who
    /// like the page at its creation (at least the author).
    pub initial_popularity: f64,
}

impl ModelParams {
    /// Validated constructor.
    ///
    /// Constraints: `0 < quality <= 1`, `n > 0`, `r > 0`,
    /// `0 < initial_popularity <= quality` (popularity can never exceed
    /// quality, by Lemma 1 with awareness ≤ 1).
    pub fn new(
        quality: f64,
        num_users: f64,
        visits_per_unit_time: f64,
        initial_popularity: f64,
    ) -> Result<Self, ModelError> {
        fn check(
            name: &'static str,
            value: f64,
            ok: bool,
            constraint: &'static str,
        ) -> Result<(), ModelError> {
            if ok && value.is_finite() {
                Ok(())
            } else {
                Err(ModelError::InvalidParameter {
                    name,
                    value,
                    constraint,
                })
            }
        }
        check(
            "quality",
            quality,
            quality > 0.0 && quality <= 1.0,
            "0 < Q <= 1",
        )?;
        check("num_users", num_users, num_users > 0.0, "n > 0")?;
        check(
            "visits_per_unit_time",
            visits_per_unit_time,
            visits_per_unit_time > 0.0,
            "r > 0",
        )?;
        check(
            "initial_popularity",
            initial_popularity,
            initial_popularity > 0.0 && initial_popularity <= quality,
            "0 < P0 <= Q",
        )?;
        Ok(ModelParams {
            quality,
            num_users,
            visits_per_unit_time,
            initial_popularity,
        })
    }

    /// The paper's Figure 1 parameters: `Q = 0.8`, `n = r = 1e8`,
    /// `P(p,0) = 1e-8` ("100 million Web users and only one user liked
    /// the page at its creation").
    pub fn figure1() -> Self {
        ModelParams::new(0.8, 1e8, 1e8, 1e-8).expect("figure 1 parameters are valid")
    }

    /// The paper's Figure 2/3 parameters: `Q = 0.2`, `n = r = 1e8`,
    /// `P(p,0) = 1e-9`.
    pub fn figure2() -> Self {
        ModelParams::new(0.2, 1e8, 1e8, 1e-9).expect("figure 2 parameters are valid")
    }

    /// The ratio `r/n` that sets the model's time scale.
    #[inline]
    pub fn visit_ratio(&self) -> f64 {
        self.visits_per_unit_time / self.num_users
    }

    /// Initial awareness `A(p,0) = P(p,0)/Q(p)` (Lemma 1).
    #[inline]
    pub fn initial_awareness(&self) -> f64 {
        self.initial_popularity / self.quality
    }

    /// Replace the quality, revalidating.
    pub fn with_quality(&self, quality: f64) -> Result<Self, ModelError> {
        ModelParams::new(
            quality,
            self.num_users,
            self.visits_per_unit_time,
            self.initial_popularity,
        )
    }

    /// Replace the initial popularity, revalidating.
    pub fn with_initial_popularity(&self, p0: f64) -> Result<Self, ModelError> {
        ModelParams::new(self.quality, self.num_users, self.visits_per_unit_time, p0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_construction() {
        let p = ModelParams::new(0.5, 1e6, 2e6, 1e-6).unwrap();
        assert_eq!(p.quality, 0.5);
        assert!((p.visit_ratio() - 2.0).abs() < 1e-12);
        assert!((p.initial_awareness() - 2e-6).abs() < 1e-18);
    }

    #[test]
    fn rejects_bad_quality() {
        assert!(ModelParams::new(0.0, 1e6, 1e6, 1e-7).is_err());
        assert!(ModelParams::new(-0.1, 1e6, 1e6, 1e-7).is_err());
        assert!(ModelParams::new(1.1, 1e6, 1e6, 1e-7).is_err());
        assert!(ModelParams::new(f64::NAN, 1e6, 1e6, 1e-7).is_err());
    }

    #[test]
    fn rejects_bad_population() {
        assert!(ModelParams::new(0.5, 0.0, 1e6, 1e-7).is_err());
        assert!(ModelParams::new(0.5, 1e6, -1.0, 1e-7).is_err());
        assert!(ModelParams::new(0.5, f64::INFINITY, 1e6, 1e-7).is_err());
    }

    #[test]
    fn rejects_p0_above_quality() {
        assert!(ModelParams::new(0.5, 1e6, 1e6, 0.6).is_err());
        // P0 == Q is allowed (page born fully saturated)
        assert!(ModelParams::new(0.5, 1e6, 1e6, 0.5).is_ok());
        assert!(ModelParams::new(0.5, 1e6, 1e6, 0.0).is_err());
    }

    #[test]
    fn paper_presets() {
        let f1 = ModelParams::figure1();
        assert_eq!(f1.quality, 0.8);
        assert_eq!(f1.initial_popularity, 1e-8);
        let f2 = ModelParams::figure2();
        assert_eq!(f2.quality, 0.2);
        assert_eq!(f2.initial_popularity, 1e-9);
        assert!((f2.visit_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn with_methods_revalidate() {
        let p = ModelParams::figure1();
        assert!(p.with_quality(0.9).is_ok());
        assert!(p.with_quality(0.0).is_err());
        assert!(p.with_initial_popularity(0.5).is_ok());
        assert!(p.with_initial_popularity(0.9).is_err()); // above Q
    }

    #[test]
    fn error_display() {
        let e = ModelParams::new(2.0, 1e6, 1e6, 1e-7).unwrap_err();
        let s = e.to_string();
        assert!(s.contains("quality") && s.contains("2"));
    }

    #[test]
    fn debug_shows_field_values() {
        let p = ModelParams::figure1();
        assert!(format!("{p:?}").contains("0.8"));
    }
}
