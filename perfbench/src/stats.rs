//! Summary arithmetic: the tail-percentile rule, the SLO-rate
//! interpolation, medians, and the content digest.

/// A tail percentile is only reported where at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// A reported tail: which percentile was used, its value, and the sample
/// count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (at most the one asked for).
    pub pct: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Samples summarized.
    pub n: usize,
}

/// Value at quantile `q` in `[0, 1]` of ascending `sorted`, linearly
/// interpolated between order statistics. 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The highest percentile no greater than `want` that has at least
/// [`MIN_BEYOND`] samples beyond it. `None` when there are too few samples
/// for any tail at all.
pub fn tail(sorted: &[f64], want: f64) -> Option<Tail> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let pct = want.min(100.0 * (1.0 - MIN_BEYOND as f64 / n as f64));
    Some(Tail {
        pct,
        value: quantile(sorted, pct / 100.0),
        n,
    })
}

/// Sort a sample set ascending (samples are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// One rung of the SLO rate ladder: the offered rate and its load score,
/// the larger of `p99 / limit` and `backlog / backlog_limit`. A rung meets
/// the SLO when its score is at most 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Load score; at most 1 passes.
    pub score: f64,
}

/// The highest offered rate that meets the SLO, interpolated so the value
/// moves continuously with the measured scores.
///
/// Rungs are in ascending rate order. The answer lies between the highest
/// passing rung and the failing rung above it, where the log-score
/// crosses zero (scores grow roughly geometrically past the knee, so the
/// log keeps the interpolation from snapping to a rung). A lower rung that
/// failed on its own (a stall, not overload) does not cap the result. If
/// every rung fails, the first rung's rate is scaled down by its score;
/// if the top rung passes, its rate is returned.
pub fn slo_rate(rungs: &[Rung]) -> f64 {
    let Some(top) = rungs.last() else {
        return 0.0;
    };
    let Some(lo) = rungs.iter().rposition(|r| r.score <= 1.0) else {
        return rungs[0].rate / rungs[0].score;
    };
    if lo + 1 == rungs.len() {
        return top.rate;
    }
    let (lo, hi) = (rungs[lo], rungs[lo + 1]);
    let (llo, lhi) = (lo.score.max(1e-9).ln(), hi.score.ln());
    let frac = if lhi > llo { -llo / (lhi - llo) } else { 0.0 };
    lo.rate + (hi.rate - lo.rate) * frac.clamp(0.0, 1.0)
}

/// 64-bit content digest: word-at-a-time multiply-xorshift, fast enough to
/// check every response body on the generator threads.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 29;
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    }
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_sees_every_byte() {
        let a = vec![7u8; 8193];
        let mut b = a.clone();
        b[8192] = 8;
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a[..8]), digest(&a[..9]));
    }
}
