//! Estimators. Host noise on a small shared container arrives in bursts
//! that slow a one-second window two- to four-fold, so every timing the
//! ledger reports is the median of several equal fixed-work windows and
//! never a single wall-clock reading.

use mtl_sweep::Json;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0.0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method) gives them, so spreads computed here and by
/// the driver agree. Needs at least two values; degenerate samples
/// collapse to the median.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        let x = median(values);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile (`p` in 0..=100); 0.0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The supporting fields the ledger keeps next to every median.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary::default();
        }
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }

    /// A summary of one reading (exact counts, derived ratios).
    pub fn single(value: f64) -> Summary {
        Summary { median: value, q1: value, q3: value, min: value, max: value, n: 1 }
    }

    /// The same sample expressed in another unit or as its reciprocal
    /// rate: `f` must be monotone, so order statistics map through it.
    pub fn map(self, f: impl Fn(f64) -> f64) -> Summary {
        let (a, b) = (f(self.q1), f(self.q3));
        let (lo, hi) = (f(self.min), f(self.max));
        Summary {
            median: f(self.median),
            q1: a.min(b),
            q3: a.max(b),
            min: lo.min(hi),
            max: lo.max(hi),
            n: self.n,
        }
    }

    /// Interquartile range as a share of the median (0.0 when it is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }

    /// The median as `value`; the supporting fields only when there is
    /// more than one sample behind it.
    pub fn to_json(self, unit: &str) -> Json {
        let mut o = Json::obj();
        o.set("value", self.median).set("unit", unit);
        if self.n > 1 {
            o.set("q1", self.q1)
                .set("q3", self.q3)
                .set("min", self.min)
                .set("max", self.max)
                .set("samples", self.n);
        }
        o
    }

    pub fn from_json(j: &Json) -> Option<Summary> {
        let f = |k: &str| j.get(k).and_then(Json::as_f64);
        let median = f("value")?;
        Some(Summary {
            median,
            q1: f("q1").unwrap_or(median),
            q3: f("q3").unwrap_or(median),
            min: f("min").unwrap_or(median),
            max: f("max").unwrap_or(median),
            n: j.get("samples").and_then(Json::as_u64).unwrap_or(1) as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_arithmetic() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0, "ten samples lie beyond p95 of 200");
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((Summary::of(&v).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_maps_through_a_reciprocal() {
        let secs = Summary::of(&[1.0, 2.0, 4.0]);
        let rate = secs.map(|s| 8.0 / s);
        assert_eq!((rate.median, rate.q1, rate.q3), (4.0, 2.0, 8.0));
        assert_eq!((rate.min, rate.max, rate.n), (2.0, 8.0, 3));
        let back = Summary::from_json(&rate.to_json("1/s")).unwrap();
        assert_eq!(back, rate);
    }
}
