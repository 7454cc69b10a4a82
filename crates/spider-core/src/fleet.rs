//! Client fleets: many concurrent Spider clients in one world.
//!
//! The simulator historically ran exactly one client against a deployment.
//! A fleet world runs `1 + fleet.len()` clients — each with its own route,
//! radio, virtual interfaces, DHCP/TCP state, and join history — against
//! the *same* AP deployment, event queue, and shared medium, so contention
//! between clients is **endogenous**: a second client camped on the same
//! AP consumes real backhaul tokens, real airtime, and real DHCP server
//! draws, rather than being modeled by an exogenous load factor.
//!
//! # Determinism contract
//!
//! Fleet worlds keep the repo's byte-identity guarantees by *stream*
//! isolation, not outcome isolation:
//!
//! - The world master RNG forks streams 1–4 exactly as the single-client
//!   world always has (PHY, AP, radio, misc); beacon-stagger draws happen
//!   before client 0 takes ownership of the three client-side streams.
//!   A fleet of size one is therefore byte-identical to the historical
//!   single-client world.
//! - Client `k ≥ 1` forks streams `(5 + 3(k−1), 6 + 3(k−1), 7 + 3(k−1))`
//!   for PHY/radio/misc. Stream ids depend only on the client index, so
//!   adding client `k+1` never perturbs the private streams of clients
//!   `1..k`.
//! - `rng_ap` stays world-level and draws in event order. Two clients
//!   racing the same DHCP server *do* couple through it — that coupling
//!   is the endogenous contention the subsystem exists to model. The
//!   contract is per-client RNG *stream* isolation, not event-outcome
//!   isolation.
//!
//! Given the same `WorldConfig`, a fleet run is byte-identical across
//! process/thread execution modes and worker counts, because each world
//! is still a single-threaded DES with a totally ordered event queue.

use mobility::route::Vehicle;
use sim_engine::time::Duration;
use wifi_mac::addr::MacAddr;

use crate::world::ClientMotion;

/// First locally-administered address unit used for client interfaces.
/// Client 0's iface 0 keeps the historical `MacAddr::local(1_000)`.
pub const IFACE_ADDR_BASE: u32 = 1_000;

/// Address units reserved per client. Interface `i` of client `c` is
/// `MacAddr::local(IFACE_ADDR_BASE + c * CLIENT_ADDR_STRIDE + i)`, so
/// every station address in a fleet is unique as long as
/// `max_ifaces < CLIENT_ADDR_STRIDE` (asserted at world build).
pub const CLIENT_ADDR_STRIDE: u32 = 1_024;

/// The station address of interface `iface` on client `client`.
pub fn station_addr(client: usize, iface: usize) -> MacAddr {
    assert!(
        (iface as u32) < CLIENT_ADDR_STRIDE,
        "iface {iface} exceeds the per-client address stride"
    );
    MacAddr::local(IFACE_ADDR_BASE + client as u32 * CLIENT_ADDR_STRIDE + iface as u32)
}

/// The inverse of [`station_addr`]: the client that owns `addr` in a
/// world of `clients` clients with `ifaces` interfaces each, or `None`
/// for any other address (an AP's, the broadcast address, a station of
/// no such client or interface).
pub(crate) fn station_owner(addr: MacAddr, clients: usize, ifaces: usize) -> Option<usize> {
    let [0x02, 0x00, id @ ..] = addr.octets() else {
        return None;
    };
    let unit = u32::from_be_bytes(id).checked_sub(IFACE_ADDR_BASE)?;
    let (client, iface) = (
        (unit / CLIENT_ADDR_STRIDE) as usize,
        (unit % CLIENT_ADDR_STRIDE) as usize,
    );
    (client < clients && iface < ifaces).then_some(client)
}

/// Per-client counters surfaced in `RunResult::per_client` (and from
/// there in the run record's `per_client` object): enough to see how a
/// fleet splits the medium without bloating the byte-identity surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// Successful joins (association + DHCP bound).
    pub joins: u64,
    /// Application bytes delivered to this client.
    pub bytes: u64,
    /// Grid-cell crossings of this client (Maintenance-cadence mover
    /// updates that changed its cell).
    pub cell_crossings: u64,
}

/// Build a convoy: `extra` copies of `lead`, each trailing the previous
/// by `headway`. Fixed clients are co-located copies; routed clients
/// depart `k * headway` later along the same route, which is the metro
/// experiment's "platoon of vehicles on the same street" shape.
pub fn convoy(lead: &ClientMotion, extra: usize, headway: Duration) -> Vec<ClientMotion> {
    (1..=extra)
        .map(|k| match lead {
            ClientMotion::Fixed(p) => ClientMotion::Fixed(*p),
            ClientMotion::Route(v) => ClientMotion::Route(trail(v, headway, k)),
        })
        .collect()
}

fn trail(lead: &Vehicle, headway: Duration, k: usize) -> Vehicle {
    let mut v = lead.clone();
    for _ in 0..k {
        v = v.delayed(headway);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::geometry::Point;

    #[test]
    fn station_addrs_are_unique_across_a_fleet() {
        let mut seen = std::collections::BTreeSet::new();
        for client in 0..16 {
            for iface in 0..8 {
                assert!(
                    seen.insert(station_addr(client, iface)),
                    "duplicate address for client {client} iface {iface}"
                );
            }
        }
        // Client 0 keeps the historical addressing.
        assert_eq!(station_addr(0, 0), MacAddr::local(1_000));
        assert_eq!(station_addr(0, 2), MacAddr::local(1_002));
    }

    #[test]
    fn station_owner_inverts_station_addr() {
        for client in 0..16 {
            for iface in 0..8 {
                let addr = station_addr(client, iface);
                assert_eq!(station_owner(addr, 16, 8), Some(client));
                // Outside the world's clients or interfaces: no owner.
                assert_eq!(station_owner(addr, client, 8), None);
                assert_eq!(station_owner(addr, 16, iface), None);
            }
        }
        for other in [
            MacAddr::BROADCAST,
            MacAddr::ap(IFACE_ADDR_BASE),
            MacAddr::local(IFACE_ADDR_BASE - 1),
            MacAddr::local(0),
        ] {
            assert_eq!(station_owner(other, 16, 8), None, "{other}");
        }
    }

    #[test]
    #[should_panic(expected = "address stride")]
    fn oversized_iface_index_is_rejected() {
        let _ = station_addr(1, CLIENT_ADDR_STRIDE as usize);
    }

    #[test]
    fn convoy_of_zero_is_empty() {
        let lead = ClientMotion::Fixed(Point::new(3.0, 4.0));
        assert!(convoy(&lead, 0, Duration::from_secs(2)).is_empty());
    }

    #[test]
    fn convoy_members_trail_by_multiples_of_the_headway() {
        use mobility::route::{Route, Vehicle};
        use sim_engine::time::Instant;
        let route = Route::new(vec![Point::new(0.0, 0.0), Point::new(1_000.0, 0.0)], false);
        let lead = Vehicle::new(route, 10.0, Instant::ZERO);
        let motions = convoy(
            &ClientMotion::Route(lead.clone()),
            3,
            Duration::from_secs(5),
        );
        assert_eq!(motions.len(), 3);
        for (k, m) in motions.iter().enumerate() {
            let ClientMotion::Route(v) = m else {
                panic!("routed lead must yield routed convoy members");
            };
            let t = Instant::from_secs(60);
            let offset = Duration::from_secs(5 * (k as u64 + 1));
            assert_eq!(v.position_at(t), lead.position_at(t - offset));
        }
        // Fixed leads yield co-located copies.
        let spot = Point::new(7.0, 7.0);
        for m in convoy(&ClientMotion::Fixed(spot), 2, Duration::from_secs(1)) {
            let ClientMotion::Fixed(p) = m else {
                panic!("fixed lead must yield fixed convoy members");
            };
            assert_eq!(p, spot);
        }
    }
}
