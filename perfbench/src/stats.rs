//! Sample summaries and the result line's naming rules.

/// Median of `xs`; the mean of the two middle values for even lengths.
/// `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Percentiles the tail may be reported at, highest first. The ladder
/// stops at p99 because the serving latency limit is set on p99.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency together with the percentile it was taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`; `100.0` when the sample is too small
    /// for any ladder percentile and the maximum is reported instead.
    pub percentile: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
}

impl Tail {
    /// The percentile's printed name, `p99`, `p95`, … or `max`.
    pub fn label(&self) -> String {
        if self.percentile >= 100.0 {
            "max".to_string()
        } else {
            format!("p{}", self.percentile)
        }
    }
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] samples
/// strictly after its nearest-rank position; the maximum when no ladder
/// percentile qualifies (fewer than 20 samples). `None` when empty.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    for &p in &TAIL_LADDER {
        let rank = nearest_rank(p, n);
        if n - rank >= TAIL_BEYOND {
            return Some(Tail {
                percentile: p,
                value: s[rank - 1],
            });
        }
    }
    Some(Tail {
        percentile: 100.0,
        value: s[n - 1],
    })
}

/// Nearest-rank position (1-based) of percentile `p` in `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Value at percentile `p` by nearest rank; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    (!s.is_empty()).then(|| s[nearest_rank(p, s.len()) - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A metric name: 1–64 letters, digits, `_`, `.` and `-`, starting with
/// a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1–16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 sits at rank 990: exactly ten samples lie beyond it.
        assert_eq!(
            tail(&xs),
            Some(Tail {
                percentile: 99.0,
                value: 990.0
            })
        );
        // 999 samples: p99 is rank 990 with nine beyond; p95 qualifies.
        let t = tail(&xs[..999]).unwrap();
        assert_eq!((t.percentile, t.value), (95.0, 950.0));
        assert_eq!(t.label(), "p95");
    }

    #[test]
    fn tail_steps_down_the_ladder_as_samples_shrink() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().percentile, 90.0);
        assert_eq!(tail(&xs[..40]).unwrap().percentile, 75.0);
        assert_eq!(tail(&xs[..20]).unwrap().percentile, 50.0);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((t.percentile, t.value), (100.0, 5.0));
        assert_eq!(t.label(), "max");
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn names_allow_only_the_documented_characters() {
        assert!(valid_name("op_p50_ms"));
        assert!(valid_name("protocol.render_topk_ns_per_row"));
        assert!(valid_name("9-lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/not"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("us"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }
}
