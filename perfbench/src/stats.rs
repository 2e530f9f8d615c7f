//! Summary statistics and the result-line format.

/// Percentiles the tail helper considers, lowest first.
const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a percentile needs beyond it before it is reported.
const TAIL_SUPPORT: usize = 10;

/// Median (mean of the middle pair for an even count); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples, in whole
/// basis points so that p99.9 of 10,000 is exactly the 9,990th.
fn rank(p: f64, n: usize) -> usize {
    let bp = (p * 100.0).round() as usize;
    (bp * n).div_ceil(10_000).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100) of `xs`; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    (!v.is_empty()).then(|| v[rank(p, v.len()) - 1])
}

/// The highest percentile a sample supports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Which percentile (e.g. 99.0).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken over.
    pub n: usize,
}

/// The highest of p50, p90, p99, p99.9 and p99.99 that has at least ten
/// samples beyond it, with the sample count; `None` when even the
/// median lacks that support (fewer than 20 samples).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let pct = TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && n - rank(p, n) >= TAIL_SUPPORT)?;
    Some(Tail {
        pct,
        value: percentile(xs, pct)?,
        n,
    })
}

/// A metric name is 1–64 letters, digits, `_`, `.` and `-`, starting
/// with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Non-finite values cannot be written as JSON numbers and are left
/// out; they only arise from a run that already failed.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: the median has only 9 beyond it.
        assert_eq!(tail(&xs(19)), None);
        assert_eq!(
            tail(&xs(20)),
            Some(Tail {
                pct: 50.0,
                value: 10.0,
                n: 20
            })
        );
        // p90 of 100 is the 90th sample, with exactly 10 beyond it.
        assert_eq!(
            tail(&xs(100)),
            Some(Tail {
                pct: 90.0,
                value: 90.0,
                n: 100
            })
        );
        // 999 samples leave only 9 beyond p99, so p90 is the answer.
        assert_eq!(tail(&xs(999)).map(|t| t.pct), Some(90.0));
        assert_eq!(
            tail(&xs(1000)),
            Some(Tail {
                pct: 99.0,
                value: 990.0,
                n: 1000
            })
        );
        assert_eq!(tail(&xs(10_000)).map(|t| t.pct), Some(99.9));
        // Order of the input does not matter.
        let mut rev = xs(1000);
        rev.reverse();
        assert_eq!(tail(&rev).map(|t| t.value), Some(990.0));
    }

    #[test]
    fn metric_names_allow_only_letters_digits_underscore_dot_dash() {
        for ok in ["setup_s", "nas.poll_s", "p99-ms", "9lives", "A.b_c-D"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/x",
            "quote\"",
            "é",
            "a:b",
            &long,
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric {
                    name: "job_wall_s",
                    unit: "s",
                    value: 1.25,
                },
                Metric {
                    name: "gone",
                    unit: "s",
                    value: f64::NAN,
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"job_wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
