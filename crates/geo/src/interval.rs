//! Angle helpers for circular arcs.
//!
//! [`crate::DiscIntersection`] reports each boundary arc by its start
//! and end angle, normalized here into `[0, 2π)`. While it clips, it
//! never needs the angles themselves, only their order around a
//! circle; `pseudo_angle` gives that order from one dot and one cross
//! product, without trigonometry.

use crate::Vec2;
use std::f64::consts::TAU;

/// Normalizes an angle into `[0, 2π)`.
#[inline]
pub(crate) fn normalize_angle(a: f64) -> f64 {
    let r = a.rem_euclid(TAU);
    if r >= TAU {
        0.0
    } else {
        r
    }
}

/// A trig-free stand-in for the counter-clockwise angle from `from` to
/// `to`, in `[0, 4)`: `0` at `from`'s direction, `1` a quarter turn
/// on, `2` half a turn, `3` three quarters. It is strictly monotone in
/// the true angle, so comparing two pseudo-angles from the same `from`
/// orders the two directions around the circle. A zero vector reads
/// as `0`.
#[inline]
pub(crate) fn pseudo_angle(from: Vec2, to: Vec2) -> f64 {
    let (x, y) = (from.dot(to), from.cross(to));
    let s = x.abs() + y.abs();
    if s > 0.0 {
        let t = x / s;
        if y >= 0.0 {
            1.0 - t
        } else {
            3.0 + t
        }
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn normalize() {
        assert!((normalize_angle(-PI / 2.0) - 3.0 * PI / 2.0).abs() < 1e-12);
        assert!((normalize_angle(TAU + 0.5) - 0.5).abs() < 1e-12);
        assert_eq!(normalize_angle(0.0), 0.0);
    }

    #[test]
    fn pseudo_angle_is_monotone_in_the_angle() {
        let from = Vec2::from_angle(0.7);
        let mut last = -1.0;
        for k in 0..64 {
            let turn = k as f64 * TAU / 64.0;
            let pa = pseudo_angle(from, Vec2::from_angle(0.7 + turn) * 3.0);
            assert!(pa > last, "turn {turn}: {pa} after {last}");
            assert!((0.0..4.0).contains(&pa));
            last = pa;
        }
        assert!((pseudo_angle(from, from.perp()) - 1.0).abs() < 1e-12);
        assert!((pseudo_angle(from, -from) - 2.0).abs() < 1e-12);
        assert_eq!(pseudo_angle(from, Vec2::new(0.0, 0.0)), 0.0);
    }
}
