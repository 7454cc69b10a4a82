//! Binary wire codec for [`WorldConfig`].
//!
//! The campaign cache only ever needed a *hash* of the configuration; the
//! fleet worker protocol needs the configuration itself to cross a process
//! boundary. This module is the lossless round-trip: every field is encoded
//! with fixed-width big-endian integers (floats as IEEE-754 bit patterns, so
//! the round trip is exact), enums as one-byte tags, and collections as
//! u32-counted sequences.
//!
//! `decode_world(encode_world(c))` reproduces `c` exactly. The encoding is
//! the only serialization of a configuration: the campaign shard hash
//! (`campaign::hash::shard_hash`) hashes these bytes, so the codec must
//! carry every field, or two configs that differ only in a dropped field
//! would share a cache key.
//!
//! The decoder is total: malformed input yields [`CodecError`], never a
//! panic. It checks only the format (tags, bool bytes, channel numbers,
//! allocation caps, version, trailing bytes); meaning is checked where it
//! is defined. Routes and speed profiles go through their fallible
//! constructors (`Route::try_new`, `Vehicle::try_with_profile`), and the
//! decoded world through [`WorldConfig::validate`], so a config that
//! decodes is one `run` accepts.

use mobility::deployment::ApSite;
use mobility::geometry::Point;
use mobility::route::{Route, SpeedProfile, Vehicle};
use sim_engine::time::{Duration, Instant};
use sim_engine::wire::{Reader, WireError, Writer};
use tcp_lite::TcpConfig;
use wifi_mac::channel::Channel;
use wifi_mac::client::JoinConfig;
use wifi_mac::phy::PhyConfig;
use wifi_mac::radio::RadioConfig;
use workload::downloads::DownloadPlan;

use crate::config::{SchedulePolicy, SelectionPolicy, SpiderConfig};
use crate::world::{ClientMotion, WorldConfig};
use dhcp::client::DhcpClientConfig;

/// Version byte pair leading every encoded configuration. Bump on any
/// layout change; decoders reject other versions outright. v2 appended
/// the fleet section (extra client motions) and the `WebMix` plan tag.
pub const WORLD_CODEC_VERSION: u16 = 2;

/// Hard ceilings on decoded collection sizes: a corrupt or adversarial
/// length prefix must not translate into an unbounded allocation.
const MAX_SITES: u32 = 1 << 16;
const MAX_VERTICES: u32 = 1 << 20;
const MAX_SLICES: u32 = 1 << 16;
const MAX_FLEET: u32 = 1 << 12;

/// Why a buffer failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the field did.
    Truncated(WireError),
    /// Structurally complete but semantically invalid (bad tag, bad
    /// channel number, zero-length route, …).
    Invalid(&'static str),
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated(e) => write!(f, "world codec: {e}"),
            CodecError::Invalid(what) => write!(f, "world codec: invalid {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> CodecError {
        CodecError::Truncated(e)
    }
}

/// Encode `world` into `w`.
pub fn encode_world_into(world: &WorldConfig, w: &mut Writer) {
    w.put_u16(WORLD_CODEC_VERSION);
    w.put_u64(world.seed);
    put_phy(w, &world.phy);
    put_radio(w, &world.radio);
    w.put_u32(world.sites.len() as u32);
    for site in &world.sites {
        put_site(w, site);
    }
    put_motion(w, &world.motion);
    put_spider(w, &world.spider);
    put_tcp(w, &world.tcp);
    put_duration(w, world.duration);
    put_duration(w, world.backhaul_latency);
    w.put_u64(world.bytes_per_connection);
    put_plan(w, &world.plan);
    w.put_u32(world.fleet.len() as u32);
    for motion in &world.fleet {
        put_motion(w, motion);
    }
}

/// Encode `world` into a fresh buffer.
pub fn encode_world(world: &WorldConfig) -> Vec<u8> {
    let mut w = Writer::with_capacity(512);
    encode_world_into(world, &mut w);
    w.into_vec()
}

/// Decode a configuration previously produced by [`encode_world`]. The
/// whole buffer must be consumed; trailing bytes are an error.
pub fn decode_world(buf: &[u8]) -> Result<WorldConfig, CodecError> {
    let mut r = Reader::new(buf);
    let version = r.get_u16()?;
    if version != WORLD_CODEC_VERSION {
        return Err(CodecError::Invalid("codec version"));
    }
    let seed = r.get_u64()?;
    let phy = get_phy(&mut r)?;
    let radio = get_radio(&mut r)?;
    let n_sites = r.get_u32()?;
    if n_sites > MAX_SITES {
        return Err(CodecError::Invalid("site count"));
    }
    let mut sites = Vec::with_capacity(n_sites as usize);
    for _ in 0..n_sites {
        sites.push(get_site(&mut r)?);
    }
    let motion = get_motion(&mut r)?;
    let spider = get_spider(&mut r)?;
    let tcp = get_tcp(&mut r)?;
    let duration = get_duration(&mut r)?;
    let backhaul_latency = get_duration(&mut r)?;
    let bytes_per_connection = r.get_u64()?;
    let plan = get_plan(&mut r)?;
    let n_fleet = r.get_u32()?;
    if n_fleet > MAX_FLEET {
        return Err(CodecError::Invalid("fleet size"));
    }
    let mut fleet = Vec::with_capacity(n_fleet as usize);
    for _ in 0..n_fleet {
        fleet.push(get_motion(&mut r)?);
    }
    if !r.is_empty() {
        return Err(CodecError::Invalid("trailing bytes"));
    }
    let world = WorldConfig {
        seed,
        phy,
        radio,
        sites,
        motion,
        spider,
        tcp,
        duration,
        backhaul_latency,
        bytes_per_connection,
        plan,
        fleet,
    };
    world.validate().map_err(|e| CodecError::Invalid(e.0))?;
    Ok(world)
}

// ---- scalar helpers --------------------------------------------------------

fn put_f64(w: &mut Writer, v: f64) {
    w.put_u64(v.to_bits());
}

fn get_f64(r: &mut Reader) -> Result<f64, CodecError> {
    Ok(f64::from_bits(r.get_u64()?))
}

fn put_duration(w: &mut Writer, d: Duration) {
    w.put_u64(d.as_nanos());
}

fn get_duration(r: &mut Reader) -> Result<Duration, CodecError> {
    Ok(Duration::from_nanos(r.get_u64()?))
}

fn put_bool(w: &mut Writer, b: bool) {
    w.put_u8(b as u8);
}

fn get_bool(r: &mut Reader) -> Result<bool, CodecError> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CodecError::Invalid("bool byte")),
    }
}

fn put_channel(w: &mut Writer, c: Channel) {
    w.put_u8(c.number());
}

fn get_channel(r: &mut Reader) -> Result<Channel, CodecError> {
    Channel::new(r.get_u8()?).ok_or(CodecError::Invalid("channel number"))
}

fn put_point(w: &mut Writer, p: Point) {
    put_f64(w, p.x);
    put_f64(w, p.y);
}

fn get_point(r: &mut Reader) -> Result<Point, CodecError> {
    let x = get_f64(r)?;
    let y = get_f64(r)?;
    Ok(Point { x, y })
}

// ---- composite sections ----------------------------------------------------

fn put_phy(w: &mut Writer, phy: &PhyConfig) {
    put_f64(w, phy.tx_power_dbm);
    put_f64(w, phy.ref_loss_db);
    put_f64(w, phy.path_loss_exponent);
    put_f64(w, phy.noise_floor_dbm);
    put_f64(w, phy.per_midpoint_snr_db);
    put_f64(w, phy.per_slope_db);
    w.put_u64(phy.reference_frame_len as u64);
    w.put_u64(phy.bitrate_bps);
    put_duration(w, phy.preamble);
    put_duration(w, phy.difs);
    put_duration(w, phy.mean_backoff);
    w.put_u32(phy.data_retries);
}

fn get_phy(r: &mut Reader) -> Result<PhyConfig, CodecError> {
    Ok(PhyConfig {
        tx_power_dbm: get_f64(r)?,
        ref_loss_db: get_f64(r)?,
        path_loss_exponent: get_f64(r)?,
        noise_floor_dbm: get_f64(r)?,
        per_midpoint_snr_db: get_f64(r)?,
        per_slope_db: get_f64(r)?,
        reference_frame_len: get_usize(r)?,
        bitrate_bps: r.get_u64()?,
        preamble: get_duration(r)?,
        difs: get_duration(r)?,
        mean_backoff: get_duration(r)?,
        data_retries: r.get_u32()?,
    })
}

fn get_usize(r: &mut Reader) -> Result<usize, CodecError> {
    usize::try_from(r.get_u64()?).map_err(|_| CodecError::Invalid("usize field"))
}

fn put_radio(w: &mut Writer, radio: &RadioConfig) {
    put_duration(w, radio.reset);
    put_duration(w, radio.reset_jitter);
    put_duration(w, radio.per_iface);
    put_duration(w, radio.per_iface_jitter);
}

fn get_radio(r: &mut Reader) -> Result<RadioConfig, CodecError> {
    Ok(RadioConfig {
        reset: get_duration(r)?,
        reset_jitter: get_duration(r)?,
        per_iface: get_duration(r)?,
        per_iface_jitter: get_duration(r)?,
    })
}

fn put_site(w: &mut Writer, site: &ApSite) {
    w.put_u32(site.id);
    put_point(w, site.position);
    put_channel(w, site.channel);
    w.put_u64(site.backhaul_bps);
    put_duration(w, site.dhcp_delay_min);
    put_duration(w, site.dhcp_delay_max);
}

fn get_site(r: &mut Reader) -> Result<ApSite, CodecError> {
    Ok(ApSite {
        id: r.get_u32()?,
        position: get_point(r)?,
        channel: get_channel(r)?,
        backhaul_bps: r.get_u64()?,
        dhcp_delay_min: get_duration(r)?,
        dhcp_delay_max: get_duration(r)?,
    })
}

fn put_motion(w: &mut Writer, motion: &ClientMotion) {
    match motion {
        ClientMotion::Fixed(p) => {
            w.put_u8(0);
            put_point(w, *p);
        }
        ClientMotion::Route(vehicle) => {
            w.put_u8(1);
            let route = vehicle.route();
            let vertices = route.vertices();
            w.put_u32(vertices.len() as u32);
            for p in vertices {
                put_point(w, *p);
            }
            put_bool(w, route.is_loop());
            put_profile(w, vehicle.profile());
            w.put_u64(vehicle.departed().as_nanos());
        }
    }
}

fn get_motion(r: &mut Reader) -> Result<ClientMotion, CodecError> {
    match r.get_u8()? {
        0 => Ok(ClientMotion::Fixed(get_point(r)?)),
        1 => {
            let n = r.get_u32()?;
            if n > MAX_VERTICES {
                return Err(CodecError::Invalid("vertex count"));
            }
            let mut points = Vec::with_capacity(n as usize);
            for _ in 0..n {
                points.push(get_point(r)?);
            }
            let looped = get_bool(r)?;
            let profile = get_profile(r)?;
            let departed = Instant::from_nanos(r.get_u64()?);
            let route = Route::try_new(points, looped).map_err(CodecError::Invalid)?;
            let vehicle =
                Vehicle::try_with_profile(route, profile, departed).map_err(CodecError::Invalid)?;
            Ok(ClientMotion::Route(vehicle))
        }
        _ => Err(CodecError::Invalid("motion tag")),
    }
}

fn put_profile(w: &mut Writer, profile: &SpeedProfile) {
    match *profile {
        SpeedProfile::Constant(v) => {
            w.put_u8(0);
            put_f64(w, v);
        }
        SpeedProfile::StopAndGo {
            cruise,
            stop_every,
            stop_for,
        } => {
            w.put_u8(1);
            put_f64(w, cruise);
            put_f64(w, stop_every);
            put_f64(w, stop_for);
        }
    }
}

fn get_profile(r: &mut Reader) -> Result<SpeedProfile, CodecError> {
    match r.get_u8()? {
        0 => Ok(SpeedProfile::Constant(get_f64(r)?)),
        1 => Ok(SpeedProfile::StopAndGo {
            cruise: get_f64(r)?,
            stop_every: get_f64(r)?,
            stop_for: get_f64(r)?,
        }),
        _ => Err(CodecError::Invalid("speed profile tag")),
    }
}

fn put_spider(w: &mut Writer, spider: &SpiderConfig) {
    put_schedule(w, &spider.schedule);
    w.put_u64(spider.max_ifaces as u64);
    put_bool(w, spider.single_ap);
    put_bool(w, spider.join.use_probe);
    put_duration(w, spider.join.link_layer_timeout);
    w.put_u32(spider.join.attempts_per_phase);
    put_duration(w, spider.dhcp.retx_timeout);
    put_duration(w, spider.dhcp.attempt_budget);
    put_duration(w, spider.dhcp.idle_after_fail);
    w.put_u8(match spider.selection {
        SelectionPolicy::JoinHistory => 0,
        SelectionPolicy::BestRssi => 1,
    });
    put_bool(w, spider.lease_cache);
    put_duration(w, spider.ap_loss_timeout);
    put_duration(w, spider.evaluate_every);
    put_duration(w, spider.retry_backoff);
    put_f64(w, spider.min_join_rssi_dbm);
    put_duration(w, spider.join_setup_delay);
}

fn get_spider(r: &mut Reader) -> Result<SpiderConfig, CodecError> {
    let schedule = get_schedule(r)?;
    let max_ifaces = get_usize(r)?;
    let single_ap = get_bool(r)?;
    let join = JoinConfig {
        use_probe: get_bool(r)?,
        link_layer_timeout: get_duration(r)?,
        attempts_per_phase: r.get_u32()?,
    };
    let dhcp = DhcpClientConfig {
        retx_timeout: get_duration(r)?,
        attempt_budget: get_duration(r)?,
        idle_after_fail: get_duration(r)?,
    };
    let selection = match r.get_u8()? {
        0 => SelectionPolicy::JoinHistory,
        1 => SelectionPolicy::BestRssi,
        _ => return Err(CodecError::Invalid("selection tag")),
    };
    Ok(SpiderConfig {
        schedule,
        max_ifaces,
        single_ap,
        join,
        dhcp,
        selection,
        lease_cache: get_bool(r)?,
        ap_loss_timeout: get_duration(r)?,
        evaluate_every: get_duration(r)?,
        retry_backoff: get_duration(r)?,
        min_join_rssi_dbm: get_f64(r)?,
        join_setup_delay: get_duration(r)?,
    })
}

fn put_schedule(w: &mut Writer, schedule: &SchedulePolicy) {
    match schedule {
        SchedulePolicy::SingleChannel(c) => {
            w.put_u8(0);
            put_channel(w, *c);
        }
        SchedulePolicy::MultiChannel { slices } => {
            w.put_u8(1);
            w.put_u32(slices.len() as u32);
            for (c, d) in slices {
                put_channel(w, *c);
                put_duration(w, *d);
            }
        }
        SchedulePolicy::ScanWhenIdle { dwell } => {
            w.put_u8(2);
            put_duration(w, *dwell);
        }
        SchedulePolicy::AdaptiveChannel {
            reconsider,
            scan_dwell,
        } => {
            w.put_u8(3);
            put_duration(w, *reconsider);
            put_duration(w, *scan_dwell);
        }
    }
}

fn get_schedule(r: &mut Reader) -> Result<SchedulePolicy, CodecError> {
    match r.get_u8()? {
        0 => Ok(SchedulePolicy::SingleChannel(get_channel(r)?)),
        1 => {
            let n = r.get_u32()?;
            if n > MAX_SLICES {
                return Err(CodecError::Invalid("slice count"));
            }
            let mut slices = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let c = get_channel(r)?;
                let d = get_duration(r)?;
                slices.push((c, d));
            }
            Ok(SchedulePolicy::MultiChannel { slices })
        }
        2 => Ok(SchedulePolicy::ScanWhenIdle {
            dwell: get_duration(r)?,
        }),
        3 => Ok(SchedulePolicy::AdaptiveChannel {
            reconsider: get_duration(r)?,
            scan_dwell: get_duration(r)?,
        }),
        _ => Err(CodecError::Invalid("schedule tag")),
    }
}

fn put_tcp(w: &mut Writer, tcp: &TcpConfig) {
    w.put_u32(tcp.mss);
    w.put_u64(tcp.rwnd);
    put_duration(w, tcp.min_rto);
    put_duration(w, tcp.max_rto);
    w.put_u32(tcp.max_timeouts);
}

fn get_tcp(r: &mut Reader) -> Result<TcpConfig, CodecError> {
    Ok(TcpConfig {
        mss: r.get_u32()?,
        rwnd: r.get_u64()?,
        min_rto: get_duration(r)?,
        max_rto: get_duration(r)?,
        max_timeouts: r.get_u32()?,
    })
}

fn put_plan(w: &mut Writer, plan: &DownloadPlan) {
    match *plan {
        DownloadPlan::Saturating => w.put_u8(0),
        DownloadPlan::Segmented {
            object_bytes,
            think,
        } => {
            w.put_u8(1);
            w.put_u64(object_bytes);
            put_duration(w, think);
        }
        DownloadPlan::WebMix { think } => {
            w.put_u8(2);
            put_duration(w, think);
        }
    }
}

fn get_plan(r: &mut Reader) -> Result<DownloadPlan, CodecError> {
    match r.get_u8()? {
        0 => Ok(DownloadPlan::Saturating),
        1 => {
            let object_bytes = r.get_u64()?;
            let think = get_duration(r)?;
            Ok(DownloadPlan::Segmented {
                object_bytes,
                think,
            })
        }
        2 => Ok(DownloadPlan::WebMix {
            think: get_duration(r)?,
        }),
        _ => Err(CodecError::Invalid("plan tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::CLIENT_ADDR_STRIDE;
    use crate::world::ConfigError;

    fn sample_sites() -> Vec<ApSite> {
        vec![
            ApSite {
                id: 3,
                position: Point::new(10.0, -4.5),
                channel: Channel::CH6,
                backhaul_bps: 1_500_000,
                dhcp_delay_min: Duration::from_millis(20),
                dhcp_delay_max: Duration::from_millis(60),
            },
            ApSite {
                id: 9,
                position: Point::new(-120.25, 33.0),
                channel: Channel::CH11,
                backhaul_bps: 800_000,
                dhcp_delay_min: Duration::from_millis(5),
                dhcp_delay_max: Duration::from_millis(40),
            },
        ]
    }

    /// A vehicular world exercising the non-default variants: rectangle
    /// route, stop-and-go profile, multi-channel schedule, segmented plan.
    fn vehicular_sample(seed: u64) -> WorldConfig {
        let vehicle = Vehicle::with_profile(
            Route::rectangle(400.0, 250.0),
            SpeedProfile::StopAndGo {
                cruise: 12.0,
                stop_every: 180.0,
                stop_for: 8.0,
            },
            Instant::from_nanos(5),
        );
        let mut world = WorldConfig::new(
            seed,
            sample_sites(),
            ClientMotion::Route(vehicle),
            SpiderConfig::multi_channel_multi_ap(Duration::from_millis(200)),
            Duration::from_secs(30),
        );
        world.plan = DownloadPlan::Segmented {
            object_bytes: 1 << 20,
            think: Duration::from_millis(750),
        };
        world
    }

    fn fixed_sample(seed: u64) -> WorldConfig {
        WorldConfig::new(
            seed,
            sample_sites(),
            ClientMotion::Fixed(Point::new(0.0, 35.0)),
            SpiderConfig::stock_madwifi(),
            Duration::from_secs(10),
        )
    }

    fn debug_of(w: &WorldConfig) -> String {
        format!("{w:?}")
    }

    #[test]
    fn vehicular_world_round_trips() {
        let world = vehicular_sample(7);
        let back = decode_world(&encode_world(&world)).expect("decode");
        assert_eq!(debug_of(&world), debug_of(&back));
    }

    #[test]
    fn fixed_world_round_trips() {
        let world = fixed_sample(11);
        let back = decode_world(&encode_world(&world)).expect("decode");
        assert_eq!(debug_of(&world), debug_of(&back));
    }

    #[test]
    fn decoded_world_hashes_identically() {
        // The Debug rendering is the campaign shard-hash preimage; equal
        // renderings mean a decoded shard maps to the same cache entry.
        let world = vehicular_sample(42);
        let back = decode_world(&encode_world(&world)).expect("decode");
        assert_eq!(debug_of(&world), debug_of(&back));
    }

    #[test]
    fn fleet_world_round_trips() {
        // A fleet mixing both motion kinds plus the WebMix plan — every
        // v2 codec addition in one buffer.
        let mut world = vehicular_sample(3);
        world.plan = DownloadPlan::WebMix {
            think: Duration::from_millis(900),
        };
        world.fleet = vec![
            ClientMotion::Fixed(Point::new(55.0, -2.0)),
            ClientMotion::Route(Vehicle::with_profile(
                Route::rectangle(300.0, 150.0),
                SpeedProfile::Constant(9.0),
                Instant::from_nanos(7_000_000_000),
            )),
        ];
        let back = decode_world(&encode_world(&world)).expect("decode");
        assert_eq!(debug_of(&world), debug_of(&back));
    }

    #[test]
    fn oversized_fleet_rejected() {
        let world = fixed_sample(5);
        let mut bytes = encode_world(&world);
        // The fleet count is the last four bytes of an empty-fleet buffer.
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&(MAX_FLEET + 1).to_be_bytes());
        assert!(matches!(
            decode_world(&bytes),
            Err(CodecError::Invalid("fleet size"))
        ));
    }

    #[test]
    fn empty_multi_channel_schedule_rejected() {
        let mut world = fixed_sample(1);
        world.spider.schedule = SchedulePolicy::MultiChannel { slices: Vec::new() };
        assert!(matches!(
            decode_world(&encode_world(&world)),
            Err(CodecError::Invalid("slice count"))
        ));
    }

    #[test]
    fn iface_count_beyond_address_stride_rejected() {
        let mut world = fixed_sample(1);
        world.spider.max_ifaces = CLIENT_ADDR_STRIDE as usize;
        assert!(matches!(
            decode_world(&encode_world(&world)),
            Err(CodecError::Invalid("iface count"))
        ));
    }

    /// Seven configs that once decoded and then broke `run`: the first
    /// three panicked, the other four stopped sim time from advancing.
    /// `validate` rejects each, and so does the decoder, with one reason.
    #[test]
    fn configs_that_break_run_are_rejected() {
        type BreaksRun = fn(&mut WorldConfig);
        let cases: [(&str, BreaksRun); 7] = [
            ("backhaul rate", |w| w.sites[1].backhaul_bps = 0),
            ("TCP MSS", |w| w.tcp.mss = 0),
            ("PHY bitrate", |w| w.phy.bitrate_bps = 0),
            ("slice duration", |w| {
                w.spider.schedule = SchedulePolicy::MultiChannel {
                    slices: vec![(Channel::CH1, Duration::ZERO)],
                }
            }),
            ("evaluation period", |w| {
                w.spider.evaluate_every = Duration::ZERO
            }),
            ("reconsider period", |w| {
                w.spider.schedule = SchedulePolicy::AdaptiveChannel {
                    reconsider: Duration::ZERO,
                    scan_dwell: Duration::from_millis(150),
                }
            }),
            ("DHCP retransmission timeout", |w| {
                w.spider.dhcp.retx_timeout = Duration::ZERO
            }),
        ];
        for (reason, breaks_run) in cases {
            let mut world = vehicular_sample(1);
            breaks_run(&mut world);
            assert_eq!(world.validate(), Err(ConfigError(reason)));
            assert!(
                matches!(decode_world(&encode_world(&world)), Err(CodecError::Invalid(r)) if r == reason),
                "{reason}: decoded"
            );
        }
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut bytes = encode_world(&fixed_sample(1));
        bytes[1] ^= 0xff;
        assert!(matches!(
            decode_world(&bytes),
            Err(CodecError::Invalid("codec version"))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_world(&fixed_sample(1));
        bytes.push(0);
        assert!(matches!(
            decode_world(&bytes),
            Err(CodecError::Invalid("trailing bytes"))
        ));
    }

    #[test]
    fn every_strict_prefix_rejected() {
        let bytes = encode_world(&vehicular_sample(2));
        for cut in 0..bytes.len() {
            assert!(
                decode_world(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn bad_channel_rejected_not_panicked() {
        let world = fixed_sample(1);
        let bytes = encode_world(&world);
        // The first site's channel byte: version(2) + seed(8) + phy(6*8 +
        // 8 + 8 + 3*8 + 4) + radio(4*8) + site count(4) + id(4) + point(16).
        let off = 2 + 8 + (6 * 8 + 8 + 8 + 3 * 8 + 4) + 32 + 4 + 4 + 16;
        assert_eq!(bytes[off], 6, "offset arithmetic drifted");
        let mut bad = bytes.clone();
        bad[off] = 0;
        assert!(matches!(
            decode_world(&bad),
            Err(CodecError::Invalid("channel number"))
        ));
    }
}
