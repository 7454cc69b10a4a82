//! IEEE 802 MAC addresses.

use core::fmt;
use core::str::FromStr;

/// A 48-bit IEEE 802 MAC address.
///
/// ```
/// use wifi_mac::addr::MacAddr;
/// let a: MacAddr = "02:00:00:00:00:2a".parse().unwrap();
/// assert_eq!(a, MacAddr::local(42));
/// assert_eq!(a.to_string(), "02:00:00:00:00:2a");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// A locally administered unicast address derived from an integer id.
    /// Used to mint deterministic addresses for simulated stations.
    pub const fn local(id: u32) -> MacAddr {
        MacAddr([
            0x02, // locally administered, unicast
            0x00,
            (id >> 24) as u8,
            (id >> 16) as u8,
            (id >> 8) as u8,
            id as u8,
        ])
    }

    /// A deterministic AP (BSSID) address distinct from the `local` space.
    pub const fn ap(id: u32) -> MacAddr {
        MacAddr([
            0x06, // locally administered, unicast, different OUI nibble
            0x00,
            (id >> 24) as u8,
            (id >> 16) as u8,
            (id >> 8) as u8,
            id as u8,
        ])
    }

    /// True for the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// Raw bytes.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// Error parsing a MAC address from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacError;

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address syntax (want xx:xx:xx:xx:xx:xx)")
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddr {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = [0u8; 6];
        let mut parts = s.split(':');
        for byte in &mut out {
            let part = parts.next().ok_or(ParseMacError)?;
            if part.len() != 2 {
                return Err(ParseMacError);
            }
            *byte = u8::from_str_radix(part, 16).map_err(|_| ParseMacError)?;
        }
        if parts.next().is_some() {
            return Err(ParseMacError);
        }
        Ok(MacAddr(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_roundtrip() {
        for id in [0u32, 1, 255, 65_536, u32::MAX] {
            let a = MacAddr::local(id);
            let s = a.to_string();
            assert_eq!(s.parse::<MacAddr>().unwrap(), a);
        }
    }

    #[test]
    fn broadcast_properties() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!MacAddr::local(1).is_broadcast());
    }

    #[test]
    fn local_and_ap_spaces_disjoint() {
        for id in 0..1000 {
            assert_ne!(MacAddr::local(id), MacAddr::ap(id));
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("02:00:00:00:00".parse::<MacAddr>().is_err());
        assert!("02:00:00:00:00:2a:ff".parse::<MacAddr>().is_err());
        assert!("02:00:00:00:00:zz".parse::<MacAddr>().is_err());
        assert!("0200:00:00:00:2a".parse::<MacAddr>().is_err());
    }
}
