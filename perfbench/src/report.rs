//! Result bookkeeping: attempted/failed operations, named metrics, and
//! the one-line JSON result the benchmark ends with.

use std::fmt::Write as _;

/// Linear-interpolated quantile of `xs` at `q` in `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Fewest set-ups a run makes, and the set-up time it spends at least:
/// `setup_s` is the median of the run's set-ups, so a set-up that takes
/// milliseconds is repeated until that median is steady.
const MIN_SETUPS: usize = 5;
const MIN_SETUP_SECONDS: f64 = 0.5;

/// Whether a run whose set-ups so far took `took` seconds each sets up
/// once more.
pub fn more_setups(took: &[f64]) -> bool {
    took.len() < MIN_SETUPS || took.iter().sum::<f64>() < MIN_SETUP_SECONDS
}

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed (printed to stderr).
    pub failures: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Extra facts printed on stdout before the result line, one JSON
    /// object per line (input fingerprints, span totals, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one operation; `Err` marks it failed.
    pub fn check(&mut self, what: &str, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {why}"));
                false
            }
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The final stdout line.
    pub fn result_line(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        )
        .expect("writing to a String cannot fail");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values (which JSON cannot hold) become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn result_line_is_json() {
        let mut o = Outcome::default();
        assert!(o.check("a", Ok(())));
        assert!(!o.check("b", Err("no".into())));
        o.metric("x_ms", 1.25, "ms");
        assert_eq!(
            o.result_line(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"x_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
