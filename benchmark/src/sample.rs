//! Order statistics over timing samples.
//!
//! Every timing the benchmark prints is a median with its inter-quartile
//! range and sample count. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), because
//! that is how run-to-run spread is judged when two run sets are
//! compared, so a spread computed here means the same thing.

/// A reported number: the value, the spread of the samples behind it and
/// how many there were. Exact counts carry `iqr = 0, n = 1`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub iqr: f64,
    pub n: usize,
}

impl Reading {
    pub fn exact(value: f64) -> Reading {
        Reading {
            value,
            iqr: 0.0,
            n: 1,
        }
    }

    /// A value computed from `n` samples whose own spread is not tracked
    /// (a ratio of medians, a share of span time).
    pub fn derived(value: f64, n: usize) -> Reading {
        Reading { value, iqr: 0.0, n }
    }

    /// Median + IQR of a sample set (zero reading when empty).
    pub fn of(samples: &[f64]) -> Reading {
        if samples.is_empty() {
            return Reading {
                value: 0.0,
                iqr: 0.0,
                n: 0,
            };
        }
        Reading {
            value: median(samples),
            iqr: iqr(samples),
            n: samples.len(),
        }
    }

    pub fn scaled(self, k: f64) -> Reading {
        Reading {
            value: self.value * k,
            iqr: self.iqr * k,
            n: self.n,
        }
    }
}

/// Σ over units of the per-unit median of one sample series: how every
/// workload-level timing is formed. Sample `r` of every unit comes from
/// the same round, so the spread is the IQR of the per-round totals
/// (Σ over units of sample `r`): disturbances that hit single units
/// average out in it as they do in the value. Units without samples are
/// left out; `n` is the number of complete rounds.
pub fn summed<'a, T: 'a>(
    units: impl IntoIterator<Item = &'a T>,
    series: impl Fn(&'a T) -> &'a [f64],
) -> Reading {
    let series: Vec<&[f64]> = units
        .into_iter()
        .map(series)
        .filter(|s| !s.is_empty())
        .collect();
    let n = series.iter().map(|s| s.len()).min().unwrap_or(0);
    let totals: Vec<f64> = (0..n).map(|r| series.iter().map(|s| s[r]).sum()).collect();
    Reading {
        value: series.iter().map(|s| median(s)).sum(),
        iqr: iqr(&totals),
        n,
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, `statistics.quantiles(v, n=4)` style. With
/// fewer than two samples both collapse onto the sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

pub fn iqr(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    q3 - q1
}

/// Nearest-rank percentile, `p` in (0, 1].
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean of positive ratios (1.0 when empty).
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(iqr(&v), 5.5);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // Two samples extrapolate: [0.75, 1.5, 2.25] for [1, 2].
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.99), 198.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn geomean_and_summed_readings() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        // Medians add; the spread is that of the per-round totals, so
        // two units that move against each other cancel.
        let units = [
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
            vec![50.0, 40.0, 30.0, 20.0, 10.0, 99.0],
            vec![],
        ];
        let s = summed(&units, |u| u);
        assert_eq!((s.value, s.n), (3.0 + 35.0, 5));
        assert_eq!(s.iqr, iqr(&[51.0, 42.0, 33.0, 24.0, 15.0]));
        let steady = [vec![1.0, 2.0, 3.0], vec![3.0, 2.0, 1.0]];
        assert_eq!(summed(&steady, |u| u).iqr, 0.0);
        let none: [Vec<f64>; 0] = [];
        assert_eq!(summed(&none, |u| u).n, 0);
    }
}
