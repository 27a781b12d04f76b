//! Exact arithmetic for the pipelining key `κ = d·γ + l`,
//! `γ = sqrt(kh/Δ)`.
//!
//! `γ` is irrational in general, so keys are never materialized as
//! numbers. Instead [`Gamma`] stores `γ² = kh/Δ` as an exact rational and
//! provides:
//!
//! * a total-order comparison of `κ₁ = d₁γ + l₁` vs `κ₂ = d₂γ + l₂` by
//!   integer cross-multiplication, and
//! * the exact ceiling `⌈κ⌉ = l + ⌈sqrt(d²·kh/Δ)⌉` via integer square
//!   root,
//!
//! making every execution bit-deterministic (no floats anywhere).
//!
//! Ranges: `d ≤ n·W ≤ 2^50` and `k·h ≤ 2^40` do *not* make every
//! intermediate fit `u128` (`d²·kh ≤ 2^140`). What is required is
//! `d²·kh < 2^128`, i.e. `d·sqrt(kh) < 2^64`, which holds for every
//! realistic instance; a violation panics rather than give a wrong
//! answer — the products are checked multiplications in release builds
//! too, not debug assertions.

use dw_graph::Weight;
use std::cmp::Ordering;

/// The exact value `γ = sqrt(num/den)` with `num = k·h`, `den = Δ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gamma {
    num: u128,
    den: u128,
}

impl Gamma {
    /// `γ = sqrt(k·h / Δ)` (paper Section II-A). `Δ = 0` is treated as 1
    /// (an all-zero-distance instance; any positive γ is valid — the round
    /// bound degrades gracefully).
    pub fn new(k: u64, h: u64, delta: Weight) -> Self {
        assert!(k >= 1 && h >= 1, "need at least one source and one hop");
        Gamma {
            num: (k as u128) * (h as u128),
            den: (delta.max(1)) as u128,
        }
    }

    /// `k·h` (numerator of `γ²`).
    pub fn kh(&self) -> u128 {
        self.num
    }

    /// `Δ` (denominator of `γ²`).
    pub fn delta(&self) -> u128 {
        self.den
    }

    /// Compare `κ₁ = d₁·γ + l₁` with `κ₂ = d₂·γ + l₂` exactly.
    pub fn cmp_kappa(&self, d1: Weight, l1: u64, d2: Weight, l2: u64) -> Ordering {
        if d1 == d2 {
            return l1.cmp(&l2);
        }
        // wlog κ₁ - κ₂ = (d1-d2)γ + (l1-l2); sign decided by comparing
        // (d1-d2)γ with (l2-l1).
        let (dd, ll, flip) = if d1 > d2 {
            (d1 - d2, l2 as i128 - l1 as i128, false)
        } else {
            (d2 - d1, l1 as i128 - l2 as i128, true)
        };
        let ord = if ll <= 0 {
            Ordering::Greater // positive γ·dd beats non-positive ll
        } else {
            // 0 < ll <= u64::MAX: a difference of two u64s
            self.cmp_dd_gamma(dd, ll as u64)
        };
        if flip {
            ord.reverse()
        } else {
            ord
        }
    }

    /// Compare `dd·γ` with `ll` (both positive) as `dd²·num` against
    /// `ll²·den`.
    ///
    /// Differences below 2³² — every instance this workspace runs — take
    /// a path that cannot overflow: the squares fit `u64`, `num` and
    /// `den` fit `u64`, so each side is one 64×64→128 multiply. Anything
    /// larger is multiplied checked and panics on overflow, in release as
    /// in debug, where [`Gamma::ceil_d_gamma`] would.
    #[inline]
    fn cmp_dd_gamma(&self, dd: u64, ll: u64) -> Ordering {
        if (dd | ll) >> 32 != 0 || (self.num | self.den) >> 64 != 0 {
            return self.cmp_dd_gamma_wide(dd, ll);
        }
        let lhs = (dd * dd) as u128 * (self.num as u64) as u128;
        let rhs = (ll * ll) as u128 * (self.den as u64) as u128;
        lhs.cmp(&rhs)
    }

    #[cold]
    fn cmp_dd_gamma_wide(&self, dd: u64, ll: u64) -> Ordering {
        // a u64 squared fits u128; the scaling may not
        let scaled = |x: u64, by: u128| {
            (x as u128 * x as u128).checked_mul(by).expect(
                "key arithmetic overflow: a (d, l) difference squared times k·h or Δ exceeds u128",
            )
        };
        scaled(dd, self.num).cmp(&scaled(ll, self.den))
    }

    /// Exact `⌈κ⌉ = l + ⌈d·γ⌉`.
    pub fn ceil_kappa(&self, d: Weight, l: u64) -> u64 {
        l + self.ceil_d_gamma(d)
    }

    /// Exact `⌈d·γ⌉`: the smallest `m` with `m²·Δ ≥ d²·k·h`.
    pub fn ceil_d_gamma(&self, d: Weight) -> u64 {
        if d == 0 {
            return 0;
        }
        let d = d as u128;
        let a = d
            .checked_mul(d)
            .and_then(|x| x.checked_mul(self.num))
            .expect("key arithmetic overflow: d²·k·h exceeds u128");
        // smallest m with m² ≥ a/den, i.e. m²·den ≥ a
        let mut m = isqrt_u128(a / self.den);
        while m * m * self.den < a {
            m += 1;
        }
        debug_assert!(m <= u64::MAX as u128);
        m as u64
    }
}

/// Integer square root: largest `r` with `r² ≤ x`.
pub fn isqrt_u128(x: u128) -> u128 {
    if x < 2 {
        return x;
    }
    // f64 seed, then Newton to exactness.
    let mut r = (x as f64).sqrt() as u128;
    // correct the seed (f64 has 53 bits of mantissa)
    while r != 0 && r.checked_mul(r).is_none_or(|rr| rr > x) {
        r -= 1;
    }
    while (r + 1).checked_mul(r + 1).is_some_and(|rr| rr <= x) {
        r += 1;
    }
    r
}

/// Integer ceiling square root: smallest `r` with `r² ≥ x`.
pub fn ceil_sqrt_u128(x: u128) -> u128 {
    let r = isqrt_u128(x);
    if r * r == x {
        r
    } else {
        r + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isqrt_exact_squares() {
        for v in [0u128, 1, 2, 3, 4, 15, 16, 17, 1 << 40, (1 << 60) - 1] {
            let r = isqrt_u128(v);
            assert!(r * r <= v);
            assert!((r + 1) * (r + 1) > v);
        }
        assert_eq!(isqrt_u128(u128::MAX), (1u128 << 64) - 1);
    }

    #[test]
    fn ceil_sqrt_behaviour() {
        assert_eq!(ceil_sqrt_u128(0), 0);
        assert_eq!(ceil_sqrt_u128(1), 1);
        assert_eq!(ceil_sqrt_u128(2), 2);
        assert_eq!(ceil_sqrt_u128(4), 2);
        assert_eq!(ceil_sqrt_u128(5), 3);
    }

    #[test]
    fn gamma_one_reduces_to_d_plus_l() {
        // k·h = Δ ⇒ γ = 1 ⇒ κ = d + l exactly
        let g = Gamma::new(2, 8, 16);
        assert_eq!(g.ceil_kappa(5, 3), 8);
        assert_eq!(g.cmp_kappa(5, 3, 4, 4), Ordering::Equal);
        assert_eq!(g.cmp_kappa(5, 3, 4, 3), Ordering::Greater);
        assert_eq!(g.cmp_kappa(5, 3, 6, 3), Ordering::Less);
    }

    #[test]
    fn comparisons_match_float_reference() {
        // exhaustive small grid against careful f64 (values small enough
        // that f64 is exact in the strict cases)
        for (k, h, delta) in [(1u64, 4u64, 9u64), (3, 5, 7), (2, 10, 100), (7, 7, 1)] {
            let g = Gamma::new(k, h, delta);
            let gamma = ((k * h) as f64 / delta as f64).sqrt();
            for d1 in 0u64..8 {
                for l1 in 0u64..8 {
                    for d2 in 0u64..8 {
                        for l2 in 0u64..8 {
                            let k1 = d1 as f64 * gamma + l1 as f64;
                            let k2 = d2 as f64 * gamma + l2 as f64;
                            let expect = if (k1 - k2).abs() < 1e-9 {
                                Ordering::Equal
                            } else if k1 < k2 {
                                Ordering::Less
                            } else {
                                Ordering::Greater
                            };
                            assert_eq!(
                                g.cmp_kappa(d1, l1, d2, l2),
                                expect,
                                "k={k} h={h} Δ={delta}: ({d1},{l1}) vs ({d2},{l2})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ceil_matches_float_reference() {
        for (k, h, delta) in [(1u64, 4u64, 9u64), (3, 5, 7), (2, 10, 100), (5, 5, 2)] {
            let g = Gamma::new(k, h, delta);
            let gamma = ((k * h) as f64 / delta as f64).sqrt();
            for d in 0u64..200 {
                for l in [0u64, 1, 5, 17] {
                    let exact = g.ceil_kappa(d, l);
                    let float = (d as f64 * gamma + l as f64).ceil() as u64;
                    // float may be off by one only at exact-integer κ
                    assert!(
                        exact == float || exact == float + 1 || exact + 1 == float,
                        "d={d} l={l}: exact {exact} vs float {float}"
                    );
                    // exact definition check: smallest m ≥ d·γ
                    let m = exact - l;
                    let lhs = (m as u128) * (m as u128) * g.delta();
                    let rhs = (d as u128) * (d as u128) * g.kh();
                    assert!(lhs >= rhs);
                    if m > 0 {
                        let m1 = m - 1;
                        assert!((m1 as u128) * (m1 as u128) * g.delta() < rhs);
                    }
                }
            }
        }
    }

    /// Differences past the 32-bit fast path: γ = 1 (k·h = Δ = 2²⁰), so
    /// `κ = d + l` and the right answer is plain integer arithmetic.
    /// `dd²·k·h ≈ 2¹²⁰` still fits; debug and release builds agree
    /// because nothing here can wrap.
    #[test]
    fn wide_differences_compare_exactly() {
        let g = Gamma::new(1 << 10, 1 << 10, 1 << 20);
        let d1 = (1u64 << 50) + 12_345;
        for (l1, d2, l2) in [
            (0u64, 5u64, d1 - 5),
            (0, 5, d1 - 6),
            (0, 5, d1 - 4),
            (7, 0, d1 + 7),
            (7, 0, d1 + 6),
            (1 << 40, 1 << 49, (1 << 49) + (1 << 40) + 12_346),
        ] {
            let expect = (d1 as u128 + l1 as u128).cmp(&(d2 as u128 + l2 as u128));
            assert_eq!(
                g.cmp_kappa(d1, l1, d2, l2),
                expect,
                "l1={l1} d2={d2} l2={l2}"
            );
            assert_eq!(g.cmp_kappa(d2, l2, d1, l1), expect.reverse());
        }
        assert_eq!(g.ceil_kappa(d1, 3), d1 + 3);
    }

    /// `dd²·k·h ≈ 2¹³⁰` does not fit `u128`. The comparison must say so
    /// in every build profile, as `ceil_d_gamma` always has: before the
    /// multiplication was checked, a release build wrapped and answered.
    #[test]
    #[should_panic(expected = "key arithmetic overflow")]
    fn overflowing_comparison_panics_in_every_profile() {
        let g = Gamma::new(1 << 15, 1 << 15, 3);
        let _ = g.cmp_kappa(1 << 50, 0, 1, 1 << 50);
    }

    #[test]
    #[should_panic(expected = "key arithmetic overflow")]
    fn overflowing_ceiling_panics_in_every_profile() {
        let g = Gamma::new(1 << 15, 1 << 15, 3);
        let _ = g.ceil_kappa(1 << 50, 0);
    }

    #[test]
    fn zero_delta_guard() {
        let g = Gamma::new(2, 3, 0);
        assert_eq!(g.delta(), 1);
        assert_eq!(g.ceil_kappa(0, 5), 5);
    }

    #[test]
    fn total_order_transitivity_spot_check() {
        let g = Gamma::new(3, 7, 11);
        let pts: Vec<(u64, u64)> = (0..6).flat_map(|d| (0..6).map(move |l| (d, l))).collect();
        for &a in &pts {
            for &b in &pts {
                for &c in &pts {
                    let ab = g.cmp_kappa(a.0, a.1, b.0, b.1);
                    let bc = g.cmp_kappa(b.0, b.1, c.0, c.1);
                    if ab == bc {
                        assert_eq!(g.cmp_kappa(a.0, a.1, c.0, c.1), ab);
                    }
                }
            }
        }
    }
}
