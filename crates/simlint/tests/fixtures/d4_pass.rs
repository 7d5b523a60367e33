// Fixture: D4 must stay quiet — the per-draw path interpolates a table, and
// the one libm call that builds it documents how rarely it runs.
pub fn build(sigma: f64, quantiles: &[f64]) -> Vec<f64> {
    quantiles
        .iter()
        .map(|z| (sigma * z).exp()) // simlint::allow(D4, reason = "table build, once per dispersion")
        .collect()
}

pub fn sample(table: &[f64], cell: usize, fraction: f64) -> f64 {
    let low = table[cell];
    (low + (table[cell + 1] - low) * fraction).sqrt().powi(2)
}
