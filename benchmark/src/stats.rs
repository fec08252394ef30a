//! Order statistics and the result line.

/// Nearest-rank percentile `q` in `[0, 1]` of `values` (sorted in place).
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil().max(1.0) as usize;
    values[rank.min(values.len()) - 1]
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Prints the metrics readably on stderr and the JSON result as the last
/// line of stdout.
pub fn emit(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        eprintln!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "{:<36} {:>14} (failed {failed})",
        "operations attempted", attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
