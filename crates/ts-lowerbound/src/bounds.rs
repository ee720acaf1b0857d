//! Closed-form space bounds from the paper.

/// Theorem 1.1: a long-lived timestamp object with non-deterministic
/// solo-termination uses at least `n/6 − 1` registers.
pub fn longlived_lower_bound(n: usize) -> f64 {
    n as f64 / 6.0 - 1.0
}

/// The integral form of [`longlived_lower_bound`] used in the proof:
/// a `(3, ⌊n/2⌋)`-configuration covers at least `⌊n/6⌋` registers.
pub fn longlived_lower_bound_int(n: usize) -> usize {
    n / 6
}

/// Theorem 1.2: a one-shot timestamp object uses at least
/// `√(2n) − log n − O(1)` registers (constant taken as 2, matching the
/// proof's `m − log n − 2`).
///
/// As Section 7 remarks, the bound holds verbatim for any historyless
/// objects (e.g. swap objects) in place of registers, because the
/// covering processes never step again after their block-writes.
pub fn oneshot_lower_bound(n: usize) -> f64 {
    ((2 * n) as f64).sqrt() - (n as f64).log2() - 2.0
}

/// The grid width `m = ⌊√(2n)⌋` of the Section 4 construction.
pub fn covering_grid_width(n: usize) -> usize {
    ((2 * n) as f64).sqrt().floor() as usize
}

/// Section 5: the simple one-shot algorithm uses `⌈n/2⌉` registers.
pub fn simple_upper_bound(n: usize) -> usize {
    n.div_ceil(2)
}

/// Theorem 1.3: Algorithm 4 uses `⌈2√M⌉` registers for `M` invocations
/// (the least `m` with `m² ≥ 4M`).
pub fn bounded_upper_bound(m_calls: usize) -> usize {
    let target = 4u128 * m_calls as u128;
    let mut m = (target as f64).sqrt() as u128;
    while m * m < target {
        m += 1;
    }
    while m > 0 && (m - 1) * (m - 1) >= target {
        m -= 1;
    }
    m as usize
}

/// The long-lived upper bound we implement (collect-max): `n` registers.
/// (Ellen–Fatourou–Ruppert 2008 achieve `n − 1`; see DESIGN.md §5.)
pub fn longlived_upper_bound(n: usize) -> usize {
    n
}

/// The `n − 1` bound of the EFR algorithm the paper cites, for table
/// comparison columns.
pub fn efr_longlived_upper_bound(n: usize) -> usize {
    n.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longlived_bounds_bracket_each_other() {
        for n in [6, 60, 600, 6000] {
            let lb = longlived_lower_bound(n);
            let ub = longlived_upper_bound(n) as f64;
            assert!(lb <= ub, "n={n}");
            assert!(lb >= 0.0, "n={n}");
        }
        assert!(longlived_lower_bound(60) > 0.0);
    }

    #[test]
    fn oneshot_bounds_bracket_each_other() {
        for n in [16, 64, 256, 1024, 65536] {
            let lb = oneshot_lower_bound(n);
            let ub = bounded_upper_bound(n) as f64;
            assert!(lb <= ub, "n={n}: {lb} > {ub}");
        }
    }

    #[test]
    fn oneshot_gap_versus_longlived_opens_with_n() {
        // The space gap the paper establishes: Θ(n) long-lived versus
        // Θ(√n) one-shot. Check the ratio grows.
        let ratio = |n: usize| longlived_upper_bound(n) as f64 / bounded_upper_bound(n) as f64;
        assert!(ratio(10_000) > ratio(100));
        assert!(ratio(10_000) > 10.0);
    }

    #[test]
    fn bounded_upper_bound_matches_formula() {
        assert_eq!(bounded_upper_bound(16), 8);
        assert_eq!(bounded_upper_bound(100), 20);
        assert_eq!(bounded_upper_bound(1), 2);
    }

    #[test]
    fn grid_width_is_floor_sqrt_2n() {
        assert_eq!(covering_grid_width(8), 4);
        assert_eq!(covering_grid_width(50), 10);
        assert_eq!(covering_grid_width(2), 2);
    }

    #[test]
    fn simple_upper_bound_is_half_rounded_up() {
        assert_eq!(simple_upper_bound(7), 4);
        assert_eq!(simple_upper_bound(8), 4);
    }

    #[test]
    fn efr_bound_is_n_minus_one() {
        assert_eq!(efr_longlived_upper_bound(10), 9);
        assert_eq!(efr_longlived_upper_bound(0), 0);
    }
}
