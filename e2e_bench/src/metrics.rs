//! Metric records, sample summaries, the printed tables and the result line.

use serde::Value;

/// Median and quartiles of a sample, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld > 0, "summary of an empty sample");
    if ld == 1 {
        return Summary {
            median: v[0],
            q1: v[0],
            q3: v[0],
            n: 1,
        };
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative for a two-value sample, where Python extrapolates too.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: cut(2),
        q1: cut(1),
        q3: cut(3),
        n: ld,
    }
}

/// One named metric with its unit. `spread` is present when the value is
/// the median of repeated samples.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub spread: Option<Summary>,
}

impl Metric {
    /// The median of `samples`, with its quartiles and sample count.
    pub fn sampled(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        let s = summarize(samples);
        Metric {
            name: name.into(),
            unit,
            value: s.median,
            spread: Some(s),
        }
    }

    /// A single value: a count, a deterministic model output or a ratio of
    /// medians.
    pub fn exact(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            spread: None,
        }
    }
}

/// Print a metric table: name, value, unit, then quartiles and sample count
/// where the value is a median.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("== {title}");
    for m in metrics {
        match m.spread {
            Some(s) => println!(
                "  {:<40} {:>14.6} {:<9} q1 {:.6}  q3 {:.6}  n {}",
                m.name, m.value, m.unit, s.q1, s.q3, s.n
            ),
            None => println!("  {:<40} {:>14.6} {:<9}", m.name, m.value, m.unit),
        }
    }
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let entries = metrics
        .iter()
        .map(|m| {
            let v = Value::Map(vec![
                ("value".to_string(), Value::F64(m.value)),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
            ]);
            (m.name.clone(), v)
        })
        .collect();
    serde::json::value_to_string(&Value::Map(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Map(entries)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }
}
