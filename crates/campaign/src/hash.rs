//! Content addressing for campaign shards.
//!
//! A shard's identity is the hash of its **full input**: a code
//! fingerprint (crate version + run-record schema revision) followed by
//! the complete `WorldConfig` — seed, sites, motion, driver policy, TCP
//! parameters, duration, workload, fleet — as encoded by
//! [`spider_core::codec::encode_world`], a versioned lossless encoding
//! (its decoder is the round-trip witness). The codec writes every field
//! at fixed width (floats as IEEE-754 bit patterns), so the preimage is
//! deterministic across runs and platforms, and renaming a field does not
//! move it. Any change to any field — a different seed, one more AP, a
//! 1 ms timer tweak — changes the hash and misses the cache.
//!
//! Caches written while the preimage was the config's `Debug` text miss
//! once under these keys; their old records stay orphaned under
//! `reports/` until the cache directory is deleted.

use spider_core::codec::encode_world;
use spider_core::report::RUN_RECORD_VERSION;
use spider_core::world::WorldConfig;

/// The code fingerprint folded into every shard hash. Bump
/// [`CACHE_REV`] when simulator behaviour changes in a way that should
/// invalidate previously cached run records.
pub fn code_fingerprint() -> String {
    format!(
        "spider-campaign/{}/record-v{}/rev-{}",
        env!("CARGO_PKG_VERSION"),
        RUN_RECORD_VERSION,
        CACHE_REV
    )
}

/// Manual cache-invalidation knob: bump on behavioural simulator changes
/// that `WorldConfig` cannot express (the hermetic workspace has no
/// build-graph hash to lean on).
pub const CACHE_REV: u32 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes` from an explicit basis.
fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    let mut hash = basis;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// 128-bit content hash as 32 lowercase hex characters.
///
/// Two chained FNV-1a-64 passes: the second pass is seeded with the
/// first's output, so the halves are not independent hashes of the same
/// basis (which would collide in pairs whenever the first 8 bytes
/// collide).
pub fn content_hash(bytes: &[u8]) -> String {
    let lo = fnv1a(bytes, FNV_OFFSET);
    let hi = fnv1a(bytes, lo ^ 0x6c62_272e_07bb_0142);
    format!("{hi:016x}{lo:016x}")
}

/// The content-addressed key of one shard: [`content_hash`] over
/// `code_fingerprint() ‖ 0x00 ‖ encode_world(world)`.
pub fn shard_hash(world: &WorldConfig) -> String {
    let mut preimage = code_fingerprint().into_bytes();
    preimage.push(0);
    preimage.extend_from_slice(&encode_world(world));
    content_hash(&preimage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::deployment::ApSite;
    use mobility::geometry::Point;
    use sim_engine::time::Duration;
    use spider_core::config::SpiderConfig;
    use spider_core::world::{ClientMotion, WorldConfig};
    use wifi_mac::channel::Channel;

    fn world(seed: u64) -> WorldConfig {
        let site = ApSite {
            id: 1,
            position: Point::new(0.0, 0.0),
            channel: Channel::CH1,
            backhaul_bps: 2_000_000,
            dhcp_delay_min: Duration::from_millis(100),
            dhcp_delay_max: Duration::from_millis(300),
        };
        WorldConfig::new(
            seed,
            vec![site],
            ClientMotion::Fixed(Point::new(0.0, 10.0)),
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            Duration::from_secs(15),
        )
    }

    #[test]
    fn hash_is_stable_for_identical_configs() {
        assert_eq!(shard_hash(&world(5)), shard_hash(&world(5)));
    }

    #[test]
    fn seed_changes_the_hash() {
        assert_ne!(shard_hash(&world(5)), shard_hash(&world(6)));
    }

    type Mutation = Box<dyn Fn(&mut SpiderConfig)>;

    #[test]
    fn every_spider_config_field_changes_the_hash() {
        let base = world(5);
        let base_hash = shard_hash(&base);
        let mutations: Vec<Mutation> = vec![
            Box::new(|s| {
                s.schedule =
                    spider_core::config::SchedulePolicy::equal_three(Duration::from_millis(200))
            }),
            Box::new(|s| s.max_ifaces = 1),
            Box::new(|s| s.single_ap = true),
            Box::new(|s| s.selection = spider_core::config::SelectionPolicy::BestRssi),
            Box::new(|s| s.lease_cache = false),
            Box::new(|s| s.ap_loss_timeout = Duration::from_secs(4)),
            Box::new(|s| s.evaluate_every = Duration::from_millis(201)),
            Box::new(|s| s.retry_backoff = Duration::from_secs(6)),
            Box::new(|s| s.min_join_rssi_dbm = -84.0),
            Box::new(|s| s.join_setup_delay = Duration::from_millis(1)),
        ];
        for (i, mutate) in mutations.iter().enumerate() {
            let mut cfg = base.clone();
            mutate(&mut cfg.spider);
            assert_ne!(
                shard_hash(&cfg),
                base_hash,
                "mutation {i} did not change the shard hash"
            );
        }
    }

    #[test]
    fn world_level_fields_change_the_hash() {
        let base = world(5);
        let base_hash = shard_hash(&base);
        let mut longer = base.clone();
        longer.duration = Duration::from_secs(16);
        assert_ne!(shard_hash(&longer), base_hash);
        let mut moved = base.clone();
        moved.motion = ClientMotion::Fixed(Point::new(0.0, 11.0));
        assert_ne!(shard_hash(&moved), base_hash);
        let mut more_sites = base.clone();
        more_sites.sites.push(more_sites.sites[0].clone());
        more_sites.sites[1].id = 2;
        assert_ne!(shard_hash(&more_sites), base_hash);
        let mut convoy = base.clone();
        convoy
            .fleet
            .push(ClientMotion::Fixed(Point::new(5.0, 10.0)));
        assert_ne!(shard_hash(&convoy), base_hash);
    }

    #[test]
    fn content_hash_is_hex_and_spreads() {
        let h = content_hash(b"hello");
        assert_eq!(h.len(), 32);
        assert!(h.bytes().all(|b| b.is_ascii_hexdigit()));
        let distinct: std::collections::HashSet<String> = (0..1_000u32)
            .map(|i| content_hash(&i.to_le_bytes()))
            .collect();
        assert_eq!(distinct.len(), 1_000);
    }
}
