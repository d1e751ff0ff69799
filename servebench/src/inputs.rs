//! Seeded input draws shared by the workloads.

use rand::rngs::StdRng;
use rand::Rng;

/// Shuffles `items` in place (Fisher–Yates).
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `n` draws from U(lo, hi), stratified: exactly one draw falls in each of
/// `n` equal-width slices of the range, and the draws come in random order.
/// Every pool then spans its whole range evenly, so request cost and served
/// quality vary far less from seed to seed than with independent draws,
/// while each draw is still uniform on the range.
pub fn stratified(rng: &mut StdRng, n: usize, (lo, hi): (f64, f64)) -> Vec<f64> {
    let width = (hi - lo) / n as f64;
    let mut draws: Vec<f64> = (0..n)
        .map(|i| lo + width * (i as f64 + rng.gen_range(0.0..1.0)))
        .collect();
    shuffle(rng, &mut draws);
    draws
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn one_draw_per_slice_in_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let draws = stratified(&mut rng, 25, (0.5, 1.5));
        let mut slices: Vec<usize> = draws
            .iter()
            .map(|&x| {
                assert!((0.5..1.5).contains(&x));
                ((x - 0.5) / 0.04) as usize
            })
            .collect();
        slices.sort_unstable();
        assert_eq!(slices, (0..25).collect::<Vec<_>>());
        // Shuffled, not in slice order.
        assert_ne!(draws.windows(2).filter(|w| w[0] < w[1]).count(), 24);
    }
}
