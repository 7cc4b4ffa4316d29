//! The benchmark's own arithmetic: summary statistics of repeated timings,
//! failure accounting and unit conversions.

/// Bytes per MiB.
const MIB: f64 = 1024.0 * 1024.0;

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of `xs` that still has at least ten samples
/// above it, as `(percentile, value)`. `None` below eleven samples, where
/// no percentile has ten samples beyond it.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // v[n - 11] has exactly ten samples above it.
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// One-line summary of a timing series: median, tail percentile and the
/// sample count the guide asks every reported timing to carry.
pub fn describe(name: &str, unit: &str, xs: &[f64]) -> String {
    let tail = match tail_percentile(xs) {
        Some((p, v)) => format!("p{p:.1} {v:.6} {unit}"),
        None => "no percentile with 10 samples beyond it".to_string(),
    };
    let all: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    format!(
        "{name}: median {:.6} {unit}, {tail}, n={} [{}]",
        median(xs),
        xs.len(),
        all.join(" ")
    )
}

/// Shortest set-up sample, seconds: one set-up pass can last well under a
/// millisecond, too short to time steadily on a shared host.
pub const SETUP_BATCH_S: f64 = 0.05;

/// Set-up samples taken after every timed job. The host's speed drifts
/// over seconds, so the samples are spread over the whole run, as the
/// jobs are, rather than taken in one burst at its start.
pub const SETUP_SAMPLES_PER_JOB: usize = 3;

/// Run `pass`, which returns its own duration in seconds, at least once
/// and until the passes together last `min_s`. Returns the total seconds
/// and the number of passes, so a sample is their ratio: the time per pass.
pub fn batch<E>(min_s: f64, mut pass: impl FnMut() -> Result<f64, E>) -> Result<(f64, usize), E> {
    let (mut total, mut passes) = (0.0, 0);
    while passes == 0 || total < min_s {
        total += pass()?;
        passes += 1;
    }
    Ok((total, passes))
}

/// Failed or incorrect operations as a share of those attempted.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 1.0;
    }
    failed as f64 / attempted as f64
}

/// Bytes to MiB.
pub fn mib(bytes: f64) -> f64 {
    bytes / MIB
}

/// Absolute model-FLOP utilisation: FLOP/s achieved over `iterations`
/// iterations in `wall_s`, against `devices` workers each peaking at
/// `peak_gflops` (the host's measured packed-GEMM rate).
pub fn abs_mfu(
    flops_per_iter: f64,
    iterations: usize,
    wall_s: f64,
    devices: usize,
    peak_gflops: f64,
) -> f64 {
    let achieved = flops_per_iter * iterations as f64 / wall_s;
    achieved / (devices as f64 * peak_gflops * 1e9)
}

/// GFLOP/s of `flops` floating-point operations done in `secs` seconds.
pub fn gflops(flops: f64, secs: f64) -> f64 {
    flops / secs / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, v) = tail_percentile(&xs).unwrap();
        assert_eq!(v, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
        // 100 samples: the 90th percentile is the 90th value, with ten above.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (p, v) = tail_percentile(&xs).unwrap();
        assert_eq!((p, v), (90.0, 90.0));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn describe_reports_the_sample_count() {
        let s = describe("job", "s", &[1.0, 2.0, 3.0]);
        assert!(s.contains("median 2.000000 s") && s.contains("n=3"), "{s}");
    }

    #[test]
    fn batch_runs_until_the_sample_is_long_enough() {
        let mut calls = 0;
        let got = batch(0.6, || {
            calls += 1;
            Ok::<_, String>(0.25)
        });
        assert_eq!(got, Ok((0.75, 3)));
        assert_eq!(calls, 3);
        assert_eq!(batch(0.05, || Ok::<_, String>(1.0)), Ok((1.0, 1)));
        assert_eq!(batch(0.05, || Err::<f64, _>("boom")), Err("boom"));
    }

    #[test]
    fn failed_share_counts_against_attempts() {
        assert_eq!(failed_share(0, 7), 0.0);
        assert_eq!(failed_share(1, 4), 0.25);
        assert_eq!(failed_share(3, 3), 1.0);
        assert_eq!(failed_share(0, 0), 1.0, "nothing attempted is not a pass");
    }

    #[test]
    fn mib_conversion() {
        assert_eq!(mib(34.0 * 1024.0 * 1024.0), 34.0);
        assert_eq!(mib(512.0 * 1024.0), 0.5);
    }

    #[test]
    fn abs_mfu_is_achieved_over_peak() {
        // 2 GFLOP per iteration, 3 iterations in 1.5 s = 4 GFLOP/s achieved,
        // against 2 devices at 10 GFLOP/s each.
        let u = abs_mfu(2e9, 3, 1.5, 2, 10.0);
        assert!((u - 0.2).abs() < 1e-12, "{u}");
        assert!((gflops(2e9, 0.5) - 4.0).abs() < 1e-12);
    }
}
