//! Order statistics, seeded input generation and process memory.

use qsim::Pcg32;

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median of `v`; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A tail order statistic with the percentile it sits at and its base.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its percentile, 0–100.
    pub pct: f64,
    /// Samples it was taken from.
    pub n: usize,
}

/// The highest percentile of `v` with at least [`TAIL_BEYOND`] samples
/// beyond it, never below the median (small sample sets fall back to it).
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            pct: 0.0,
            n,
        };
    }
    let i = n.saturating_sub(TAIL_BEYOND + 1).max((n - 1) / 2);
    Tail {
        value: s[i],
        pct: 100.0 * (i + 1) as f64 / n as f64,
        n,
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// `num / den`, or 0 when `den` is 0 (ratios of empty sets print as 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A uniform draw from `[0, 1)`.
pub fn unit(rng: &mut Pcg32) -> f64 {
    rng.next_u32() as f64 / 4_294_967_296.0
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut Pcg32, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Narrowest stratum of [`stratified`], in values.
const MIN_STRATUM: u64 = 16;

/// `m` values over `[lo, hi]`, drawn uniformly within equal strata that
/// take turns, in seeded order. Stratifying keeps order statistics
/// (medians, tails, sums) nearly the same from seed to seed; strata at
/// least [`MIN_STRATUM`] values wide keep every one of them seed-dependent.
pub fn stratified(rng: &mut Pcg32, m: usize, lo: u64, hi: u64) -> Vec<u64> {
    let span = hi - lo + 1;
    let k = (m as u64).min(span / MIN_STRATUM).max(1);
    let width = span as f64 / k as f64;
    let mut v: Vec<u64> = (0..m as u64)
        .map(|j| (lo + (((j % k) as f64 + unit(rng)) * width) as u64).min(hi))
        .collect();
    shuffle(rng, &mut v);
    v
}

/// `len` seeded bytes.
pub fn bytes(rng: &mut Pcg32, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u8()).collect()
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(median(&v), 50.5);
        assert_eq!(tail(&[3.0, 1.0, 2.0]).value, 2.0);
    }

    #[test]
    fn stratified_covers_every_stratum() {
        let mut rng = Pcg32::new(7);
        let mut v = stratified(&mut rng, 10, 0, 999);
        v.sort_unstable();
        for (j, x) in v.iter().enumerate() {
            assert!((j as u64 * 100..(j as u64 + 1) * 100).contains(x));
        }
        // More values than 16-wide strata: each stratum takes several.
        let mut v = stratified(&mut rng, 64, 0, 63);
        v.sort_unstable();
        for (j, x) in v.iter().enumerate() {
            assert_eq!(x / 16, j as u64 / 16);
        }
    }
}
