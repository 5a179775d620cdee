//! What a run reports: operation counts, check results, metrics, and the
//! closing JSON line.

use crate::checks::Check;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (episodes scored, requests submitted).
    pub attempted: u64,
    /// Operations that did not complete.
    pub failed: u64,
    /// Named check results.
    pub checks: Vec<(String, Check)>,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn check(&mut self, name: impl Into<String>, result: Check) {
        self.checks.push((name.into(), result));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, r)| r.is_ok())
    }

    /// The closing JSON line. Non-finite values (never expected) are written
    /// as `null` so the line stays valid JSON.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let mut r = Report {
            attempted: 12,
            ..Report::default()
        };
        r.metric("latency_p50_ms", 1.25, "ms");
        r.check("ok", Ok(()));
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.check("bad", Err("x".into()));
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
