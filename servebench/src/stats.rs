//! Percentiles and the result line.

use twx_obs::json::Json;

/// Nearest-rank percentile (`p` in `0..=1`) of `values`; `None` when empty.
/// Failed ops enter as `f64::INFINITY`, beyond every percentile.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).unwrap_or(0.0)
}

/// Mean of the `values` at or below `cap` (0 when none is). Failed ops,
/// which enter as `f64::INFINITY`, fall above any finite cap.
pub fn trimmed_mean(values: &[f64], cap: f64) -> f64 {
    let kept: Vec<f64> = values.iter().copied().filter(|v| *v <= cap).collect();
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// The named metrics of one run, in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str, usize)>,
}

impl Metrics {
    /// Records `name` = `value` `unit`, measured over `samples` samples.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.entries.push((name.to_string(), value, unit, samples));
    }

    /// A human-readable table, one metric per line with its sample count.
    pub fn table(&self) -> String {
        self.entries
            .iter()
            .map(|(name, value, unit, samples)| {
                format!("  {name:<36} {value:>14.4} {unit:<6} (n={samples})\n")
            })
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// as `{"value", "unit"}`. A value that is not finite (a percentile
    /// landing on failed ops) is written as 1e12 so the line stays JSON.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut metrics = Json::obj();
        for (name, value, unit, _) in &self.entries {
            let value = if value.is_finite() { *value } else { 1e12 };
            metrics = metrics.field(name, Json::obj().field("value", value).field("unit", *unit));
        }
        Json::obj()
            .field("correct", correct)
            .field("attempted", attempted)
            .field("failed", failed)
            .field("metrics", metrics)
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        let with_failure = [1.0, f64::INFINITY, 2.0];
        assert_eq!(percentile(&with_failure, 1.0), Some(f64::INFINITY));
        assert_eq!(median(&with_failure), 2.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 3.0, 10.0], 3.0), 2.0);
        assert_eq!(trimmed_mean(&with_failure, f64::INFINITY), f64::INFINITY);
    }
}
