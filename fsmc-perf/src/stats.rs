//! Order statistics over timing samples.

/// Percentile levels the tail metric may report, highest first, in
/// tenths of a percent (integers, so the count beyond is exact).
const TAIL_LEVELS: [usize; 6] = [999, 990, 950, 900, 800, 750];

/// The `p`-th percentile (0..=100) of `samples` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them, so spreads read the same here and in
/// any script that checks them.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |j: usize| -> f64 {
        // Python: m = n + 1; j = i*m // 4; delta = i*m - j*4;
        // result = (data[j-1] * (4 - delta) + data[j] * delta) / 4,
        // with j clamped into 1..=n-1.
        let m = n + 1;
        let raw = j * m;
        let k = (raw / 4).clamp(1, n - 1);
        let delta = raw as f64 - (k * 4) as f64;
        (v[k - 1] * (4.0 - delta) + v[k] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The highest standard percentile level with at least ten samples
/// beyond it, for `n` samples: the level a tail latency can honestly
/// be reported at. `None` when fewer than 40 samples exist (not even
/// p75 has ten beyond it).
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS.into_iter().find(|&p| n * (1000 - p) >= 10 * 1000).map(|p| p as f64 / 10.0)
}

/// `(level, value)` of the tail percentile of `samples` (see
/// [`tail_level`]).
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    tail_level(samples.len()).map(|p| (p, percentile(samples, p)))
}
