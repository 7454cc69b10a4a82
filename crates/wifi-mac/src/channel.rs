//! 2.4 GHz 802.11 channels.
//!
//! The paper's environment is 802.11b/g in the 2.4 GHz ISM band. Almost all
//! APs it observed sit on the three non-overlapping channels 1, 6 and 11
//! (Amherst: 28 %, 33 %, 34 %; Boston/Cabernet: 83 % on the three, 39 % on
//! channel 6), and Spider is configured to schedule among exactly those.

use core::fmt;

/// A 2.4 GHz channel number, 1–14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Channel(u8);

/// The three orthogonal 2.4 GHz channels Spider schedules among.
pub const ORTHOGONAL: [Channel; 3] = [Channel(1), Channel(6), Channel(11)];

impl Channel {
    /// Channel 1 (2412 MHz).
    pub const CH1: Channel = Channel(1);
    /// Channel 6 (2437 MHz).
    pub const CH6: Channel = Channel(6);
    /// Channel 11 (2462 MHz).
    pub const CH11: Channel = Channel(11);

    /// Construct a channel; returns `None` outside 1–14.
    pub const fn new(num: u8) -> Option<Channel> {
        if num >= 1 && num <= 14 {
            Some(Channel(num))
        } else {
            None
        }
    }

    /// Construct a channel, panicking outside 1–14.
    pub fn from_number(num: u8) -> Channel {
        // simlint: allow(panic-path) — documented panicking constructor; the fallible twin is Channel::new
        Channel::new(num).unwrap_or_else(|| panic!("invalid 2.4 GHz channel {num}"))
    }

    /// The channel number, 1–14.
    pub const fn number(self) -> u8 {
        self.0
    }

    /// Dense 0-based index (`number() - 1`), always `< Channel::COUNT`.
    /// Lets per-channel state live in fixed arrays instead of maps.
    pub const fn index(self) -> usize {
        (self.0 - 1) as usize
    }

    /// Number of distinct 2.4 GHz channels (valid `index()` values).
    pub const COUNT: usize = 14;

    /// Centre frequency in MHz (channel 14 is the Japanese special case).
    pub const fn centre_mhz(self) -> u32 {
        if self.0 == 14 {
            2484
        } else {
            2407 + 5 * self.0 as u32
        }
    }

    /// Fractional spectral overlap with another channel in `[0, 1]`:
    /// 1 for the same channel, 0 for orthogonal channels, linear in between.
    /// Used by the PHY to model adjacent-channel interference.
    pub fn overlap(self, other: Channel) -> f64 {
        let diff = self.0.abs_diff(other.0) as f64;
        (1.0 - diff / 5.0).max(0.0)
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_bounds() {
        assert!(Channel::new(0).is_none());
        assert!(Channel::new(1).is_some());
        assert!(Channel::new(14).is_some());
        assert!(Channel::new(15).is_none());
    }

    #[test]
    fn index_is_dense_and_bounded() {
        assert_eq!(Channel::CH1.index(), 0);
        assert_eq!(Channel::from_number(14).index(), Channel::COUNT - 1);
        for n in 1..=14u8 {
            assert!(Channel::from_number(n).index() < Channel::COUNT);
        }
    }

    #[test]
    fn frequencies() {
        assert_eq!(Channel::CH1.centre_mhz(), 2412);
        assert_eq!(Channel::CH6.centre_mhz(), 2437);
        assert_eq!(Channel::CH11.centre_mhz(), 2462);
        assert_eq!(Channel::from_number(14).centre_mhz(), 2484);
    }

    #[test]
    fn orthogonality_of_1_6_11() {
        for (i, a) in ORTHOGONAL.iter().enumerate() {
            for (j, b) in ORTHOGONAL.iter().enumerate() {
                assert_eq!(a.overlap(*b) == 0.0, i != j);
            }
        }
    }

    #[test]
    fn overlap_endpoints() {
        assert_eq!(Channel::CH1.overlap(Channel::CH1), 1.0);
        assert_eq!(Channel::CH1.overlap(Channel::CH6), 0.0);
        let near = Channel::from_number(2);
        let o = Channel::CH1.overlap(near);
        assert!(o > 0.0 && o < 1.0);
        assert_eq!(Channel::CH1.overlap(near), near.overlap(Channel::CH1));
    }

    #[test]
    #[should_panic(expected = "invalid 2.4 GHz channel")]
    fn from_number_panics_out_of_range() {
        Channel::from_number(0);
    }
}
