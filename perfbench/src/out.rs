//! The result line: one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (name → value and unit).

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Requests (or traced operations) whose results were checked.
    pub attempted: u64,
    /// Of those, the ones whose results did not match the reference.
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Records metric `name` with `unit`. Non-finite values become 0 so
    /// the line stays valid JSON; every caller guards its divisions.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(
            self.metrics.iter().all(|(n, _, _)| *n != name),
            "metric {name} recorded twice"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    /// Renders the result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
