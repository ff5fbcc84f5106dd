//! Simulation configuration.

use crate::QualityDist;

/// How visits are allocated to pages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VisitModel {
    /// The paper's Proposition 1: a page's visit rate is proportional to
    /// its (simple) popularity, `V(p,t) = r·P(p,t)`.
    ByPopularity,
    /// Search-engine-mediated discovery: visit rate proportional to the
    /// page's *current PageRank* on the evolving link graph. This is the
    /// "rich get richer" world of the paper's introduction — young
    /// high-quality pages are starved of visits because engines surface
    /// currently-popular pages.
    ByPageRank,
    /// Result-page exposure: pages are *ranked* by current PageRank and
    /// visits decay with rank position as `1/(rank+1)^bias` — the
    /// empirical click-through curve of a search result page. This is
    /// the harshest rich-get-richer regime: position, not score mass,
    /// decides who is seen, so the gap between rank 1 and rank 100 is
    /// enormous regardless of how close their PageRanks are.
    BySearchRank {
        /// Position-bias exponent (~1–2 empirically; larger = harsher).
        bias: f64,
    },
}

/// Full parameter set for a [`crate::World`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of web users `n` (Proposition 2's population).
    pub num_users: usize,
    /// Number of distinct sites (the paper crawls 154).
    pub num_sites: usize,
    /// Visit-rate constant `r`, *expressed as the ratio `r/n`* (visits
    /// per unit time a fully-liked page receives, per user). The model's
    /// timescale knob.
    pub visit_ratio: f64,
    /// New pages born per unit time (Poisson).
    pub page_birth_rate: f64,
    /// Quality distribution for newborn pages.
    pub quality_dist: QualityDist,
    /// Per-unit-time probability that an aware user forgets a page
    /// (0 disables the forgetting extension).
    pub forget_rate: f64,
    /// Simulation time step. Visit counts per step are Poisson with mean
    /// `V(p,t)·dt`; smaller steps approximate the continuous model more
    /// closely at higher cost.
    pub dt: f64,
    /// Visit allocation model.
    pub visit_model: VisitModel,
    /// RNG seed — every run with the same config is bit-identical.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_users: 2_000,
            num_sites: 20,
            visit_ratio: 3.0,
            page_birth_rate: 30.0,
            quality_dist: QualityDist::default(),
            forget_rate: 0.0,
            dt: 0.05,
            visit_model: VisitModel::ByPopularity,
            seed: 42,
        }
    }
}

impl SimConfig {
    /// Panic with a clear message on nonsensical parameters.
    pub fn validate(&self) {
        assert!(self.num_users >= 1, "need at least one user");
        assert!(self.num_sites >= 1, "need at least one site");
        assert!(
            self.visit_ratio > 0.0 && self.visit_ratio.is_finite(),
            "visit_ratio must be positive, got {}",
            self.visit_ratio
        );
        assert!(self.page_birth_rate >= 0.0, "page_birth_rate must be >= 0");
        assert!(self.forget_rate >= 0.0, "forget_rate must be >= 0");
        assert!(self.dt > 0.0 && self.dt.is_finite(), "dt must be positive");
        assert!(
            self.forget_rate * self.dt <= 1.0,
            "forget_rate * dt must be <= 1 (it is a per-step probability)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SimConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "user")]
    fn rejects_zero_users() {
        SimConfig {
            num_users: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "visit_ratio")]
    fn rejects_zero_visit_ratio() {
        SimConfig {
            visit_ratio: 0.0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "dt")]
    fn rejects_zero_dt() {
        SimConfig {
            dt: 0.0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "forget_rate * dt")]
    fn rejects_forget_probability_above_one() {
        SimConfig {
            forget_rate: 30.0,
            dt: 0.1,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn debug_names_every_field() {
        // smoke check that all fields are present in the Debug output
        let s = format!("{:?}", SimConfig::default());
        for field in [
            "num_users",
            "visit_ratio",
            "page_birth_rate",
            "forget_rate",
            "seed",
        ] {
            assert!(s.contains(field), "{field} missing from {s}");
        }
    }
}
