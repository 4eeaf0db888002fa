//! The harness's own order statistics and the A/A verdict built on them.
//!
//! Kept here, not borrowed from a repository crate, so that deleting or
//! reshaping a metrics vocabulary never forces a benchmark edit.

/// Order statistics of one metric over the samples of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

/// The `k`-th quartile of ascending `sorted`, by the exclusive method of
/// Python's `statistics.quantiles(values, n=4)` — the one the acceptance
/// check uses, so `--aa` and the driver read the same spread.
fn quartile(sorted: &[f64], k: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = k * (n + 1);
    let j = (pos / 4).clamp(1, n - 1);
    let delta = pos as f64 / 4.0 - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

impl Summary {
    /// Summarises `values`; `None` when there are none. No tail
    /// percentile is offered: runs have fewer than eleven samples.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            min: v[0],
            q1: quartile(&v, 1),
            median: quartile(&v, 2),
            q3: quartile(&v, 3),
            max: v[v.len() - 1],
        })
    }

    /// The location an end-to-end metric reports: the first quartile.
    /// On a shared two-core host interference only ever adds time, so
    /// the faster quarter of the samples is the steadier estimate — its
    /// run-to-run spread measured 35-50 % below the median's when the
    /// host was busy, and the same when it was quiet.
    pub fn steady(&self) -> f64 {
        self.q1
    }

    /// Interquartile distance as a share of the median (0 for a zero
    /// median: such a metric carries a count, not a timing).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// How two sets of runs of the same code compare on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agreement {
    /// Reported values within the bound and both spreads inside it.
    Agree,
    /// Reported values within the bound, but a spread wider than the
    /// bound: the metric cannot resolve a change of that size.
    Unresolved,
    /// Reported values further apart than the bound.
    Differs,
}

impl Agreement {
    /// Lower-case label for the report.
    pub fn as_str(self) -> &'static str {
        match self {
            Agreement::Agree => "agree",
            Agreement::Unresolved => "unresolved",
            Agreement::Differs => "differs",
        }
    }
}

/// Judges two summaries of one metric against its regression `bound`
/// (a share of the first set's reported value).
pub fn agreement(a: &Summary, b: &Summary, bound: f64) -> Agreement {
    let base = a.steady().abs().max(f64::MIN_POSITIVE);
    if (b.steady() - a.steady()).abs() / base > bound {
        Agreement::Differs
    } else if a.spread().max(b.spread()) > bound {
        Agreement::Unresolved
    } else {
        Agreement::Agree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.min, s.q1, s.median, s.q3, s.max), (1.0, 1.0, 2.0, 3.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(Summary::of(&[7.0]).unwrap().median, 7.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn agreement_separates_the_three_cases() {
        let tight =
            |m: f64| Summary { n: 7, min: m, q1: m * 0.99, median: m, q3: m * 1.01, max: m };
        let wide = Summary { n: 7, min: 0.5, q1: 0.95, median: 1.0, q3: 1.3, max: 2.0 };
        assert_eq!(agreement(&tight(1.0), &tight(1.05), 0.1), Agreement::Agree);
        assert_eq!(agreement(&tight(1.0), &tight(1.2), 0.1), Agreement::Differs);
        assert_eq!(agreement(&tight(1.0), &wide, 0.1), Agreement::Unresolved);
    }
}
