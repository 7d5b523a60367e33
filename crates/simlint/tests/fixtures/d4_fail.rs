// Fixture: D4 must fire — libm transcendental calls on a digest path.
pub fn service_factor(u1: f64, u2: f64, sigma: f64) -> f64 {
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    f64::exp(sigma * z)
}
