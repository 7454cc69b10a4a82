//! Layer probes: short timed loops over one layer's public functions,
//! sized to the workload where the layer's cost depends on size. They
//! answer "did this layer get faster" without the rest of the world in
//! the way; the world's own spans answer "did that matter end to end".

use std::hint::black_box;
use std::time::Instant as WallClock;

use dhcp::{DhcpAction, DhcpClient, DhcpClientConfig, DhcpMessage, DhcpServer, DhcpServerConfig};
use geo::GridIndex;
use mobility::geometry::Point;
use mobility::route::Vehicle;
use sim_engine::queue::EventQueue;
use sim_engine::rng::Rng;
use sim_engine::time::{Duration, Instant};
use spider_core::world::{ClientMotion, WorldConfig};
use tcp_lite::connection::{BulkReceiver, BulkSender, ReceiverAction, SenderAction, TcpConfig};
use wifi_mac::addr::MacAddr;
use wifi_mac::ap::{ApAction, ApConfig, ApMac};
use wifi_mac::channel::Channel;
use wifi_mac::client::{Action, ClientMac, JoinConfig};
use wifi_mac::frame::{Frame, Ssid};
use wifi_mac::phy::PhyConfig;

use crate::metrics::Metric;

/// Timed batches per probe; the probe reports their median.
const BATCHES: usize = 7;

/// The grid cell edge and hearing radius the world uses.
const CELL_M: f64 = 200.0;
const HEARING_M: f64 = 400.0;

/// What the probes are sized to.
#[derive(Debug, Clone)]
pub struct ProbeInputs {
    /// Live timers the queue probe churns at: the workload's peak depth.
    pub queue_depth: usize,
    /// AP positions the disc query runs over.
    pub sites: Vec<Point>,
    /// The vehicle whose position the mobility probe samples.
    pub vehicle: Vehicle,
}

impl ProbeInputs {
    /// Size the probes to `world`, churning the queue at `queue_depth`.
    /// A stationary client has no route, so `fallback` supplies one.
    pub fn from_world(
        world: &WorldConfig,
        queue_depth: usize,
        fallback: &WorldConfig,
    ) -> ProbeInputs {
        let vehicle = [&world.motion, &fallback.motion]
            .into_iter()
            .find_map(|m| match m {
                ClientMotion::Route(v) => Some(v.clone()),
                ClientMotion::Fixed(_) => None,
            })
            .unwrap_or_else(|| {
                Vehicle::new(
                    mobility::route::Route::rectangle(800.0, 400.0),
                    10.0,
                    Instant::ZERO,
                )
            });
        ProbeInputs {
            queue_depth: queue_depth.max(1),
            sites: world.sites.iter().map(|s| s.position).collect(),
            vehicle,
        }
    }
}

/// A named probe body; it returns how many units of layer work it did.
type Probe<'a> = (&'static str, Box<dyn Fn() -> u64 + 'a>);

/// Run every probe; each metric is ns per unit of layer work.
pub fn run_all(inputs: &ProbeInputs) -> Vec<Metric> {
    let depth = inputs.queue_depth;
    let grid = GridIndex::build(&inputs.sites, CELL_M);
    let centers = query_centers(&inputs.sites);
    let beacon = Frame::beacon(MacAddr::ap(1), Ssid::new("open-net"), Channel::CH6, 12_345);
    let phy = PhyConfig::default();
    let vehicle = &inputs.vehicle;
    let probes: [Probe; 8] = [
        ("sim_engine.queue_ns", Box::new(move || queue_churn(depth))),
        (
            "geo.disc_query_ns",
            Box::new(|| {
                let hits: usize = centers
                    .iter()
                    .map(|&c| grid.count_in_disc(c, HEARING_M))
                    .sum();
                black_box(hits);
                centers.len() as u64
            }),
        ),
        (
            "wifi_mac.frame_codec_ns",
            Box::new(|| {
                for _ in 0..1_000 {
                    let bytes = beacon.encode();
                    black_box(Frame::decode(black_box(&bytes)).ok());
                }
                1_000
            }),
        ),
        (
            "wifi_mac.phy_ns",
            Box::new(|| {
                let mut acc = 0.0;
                for i in 0..10_000u32 {
                    acc += phy.data_delivery_prob(black_box(f64::from(i) / 50.0), 1500);
                }
                black_box(acc);
                10_000
            }),
        ),
        ("wifi_mac.join_ns", Box::new(|| repeat(100, mac_join))),
        ("dhcp.exchange_ns", Box::new(|| repeat(100, dhcp_exchange))),
        (
            "mobility.position_ns",
            Box::new(|| {
                for i in 0..10_000u64 {
                    let at = Instant::ZERO + Duration::from_millis(i * 37);
                    black_box(vehicle.position_at(black_box(at)));
                }
                10_000
            }),
        ),
        ("tcp.segment_ns", Box::new(tcp_transfer)),
    ];
    probes
        .iter()
        .filter_map(|(name, body)| Metric::median_of(name, "ns", &ns_per_unit(body)))
        .collect()
}

/// `BATCHES` timed calls of `body`, each as ns per unit it reports.
fn ns_per_unit(body: &dyn Fn() -> u64) -> Vec<f64> {
    body(); // warm-up
    (0..BATCHES)
        .map(|_| {
            let t = WallClock::now();
            let units = body();
            t.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect()
}

/// `n` calls of `f`; a call returning `None` did not finish its exchange
/// and counts for nothing.
fn repeat(n: u64, f: fn() -> Option<u64>) -> u64 {
    (0..n).filter_map(|_| black_box(f())).count() as u64
}

/// 64 query points over the sites' bounding box (an 8 × 8 lattice).
fn query_centers(sites: &[Point]) -> Vec<Point> {
    let (mut lo, mut hi) = (
        Point::new(f64::MAX, f64::MAX),
        Point::new(f64::MIN, f64::MIN),
    );
    for p in sites {
        lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
        hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
    }
    if sites.is_empty() {
        return vec![Point::new(0.0, 0.0)];
    }
    (0..64u32)
        .map(|i| {
            let fx = (f64::from(i % 8) + 0.5) / 8.0;
            let fy = (f64::from(i / 8) + 0.5) / 8.0;
            Point::new(lo.x + (hi.x - lo.x) * fx, lo.y + (hi.y - lo.y) * fy)
        })
        .collect()
}

/// Steady-state churn at `depth` live timers: every pop schedules a
/// successor, the world's dominant queue pattern. Units: pop + push pairs.
fn queue_churn(depth: usize) -> u64 {
    const CHURN: u64 = 8_192;
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut rng = Rng::new(1);
    for i in 0..depth {
        q.push(Instant::from_micros(rng.range_u64(0, 10_000)), i as u32);
    }
    let mut acc = 0u64;
    for _ in 0..CHURN {
        if let Some((at, v)) = q.pop() {
            acc = acc.wrapping_add(u64::from(v));
            q.push(at + Duration::from_micros(1 + rng.range_u64(0, 1_000)), v);
        }
    }
    black_box(acc);
    CHURN
}

/// One open-system association handshake between a client and an AP MAC.
fn mac_join() -> Option<u64> {
    let mut ap = ApMac::new(ApConfig::open(1, "open", Channel::CH1));
    let join = JoinConfig {
        use_probe: false,
        ..JoinConfig::reduced()
    };
    let mut client = ClientMac::new(MacAddr::local(1), ap.bssid(), Ssid::new("open"), join);
    let mut rng = Rng::new(1);
    let now = Instant::ZERO;
    let mut to_ap: Vec<Frame> = sends(client.start(now));
    for _ in 0..16 {
        if client.is_associated() {
            return client.aid().map(u64::from);
        }
        let mut to_client = Vec::new();
        for frame in to_ap.drain(..) {
            for act in ap.on_frame(&frame, now, &mut rng) {
                if let ApAction::Send { frame, .. } = act {
                    to_client.push(frame);
                }
            }
        }
        for frame in to_client {
            to_ap.extend(sends(client.handle_frame(&frame)));
        }
    }
    None
}

fn sends(actions: Vec<Action>) -> Vec<Frame> {
    actions
        .into_iter()
        .filter_map(|a| match a {
            Action::Send(f) => Some(f),
            _ => None,
        })
        .collect()
}

/// One DISCOVER/OFFER/REQUEST/ACK exchange, every message through the
/// wire codec.
fn dhcp_exchange() -> Option<u64> {
    let mut client = DhcpClient::new(DhcpClientConfig::default(), [2, 0, 0, 0, 0, 1], 7);
    let mut server = DhcpServer::new(DhcpServerConfig::for_ap(
        1,
        Duration::from_millis(50),
        Duration::from_millis(200),
    ));
    let mut rng = Rng::new(1);
    let now = Instant::ZERO;
    let mut pending = client.start(now, None);
    for _ in 0..8 {
        let mut next = Vec::new();
        for action in pending {
            match action {
                DhcpAction::Bound(lease) => return Some(u64::from(u32::from(lease.ip))),
                DhcpAction::Send(msg) => {
                    let wire = DhcpMessage::decode(&msg.encode()).ok()?;
                    if let Some((_, reply)) = server.on_message(&wire, now, &mut rng) {
                        let wire = DhcpMessage::decode(&reply.encode()).ok()?;
                        next.extend(client.handle_message(&wire, now));
                    }
                }
                DhcpAction::ArmTimer { .. } | DhcpAction::Failed => {}
            }
        }
        pending = next;
    }
    None
}

/// A 1 MB lossless bulk transfer. Units: segments handled, data and ACK.
fn tcp_transfer() -> u64 {
    let mut sender = BulkSender::new(TcpConfig::default(), 1, 1_000_000, 42);
    let mut receiver = BulkReceiver::new(1);
    let now = Instant::ZERO;
    let transmits = |actions: Vec<SenderAction>| -> Vec<_> {
        actions
            .into_iter()
            .filter_map(|a| match a {
                SenderAction::Transmit(s) => Some(s),
                _ => None,
            })
            .collect()
    };
    let mut to_recv = transmits(sender.start(now));
    let mut segments = 0u64;
    for _ in 0..100_000 {
        if to_recv.is_empty() {
            break;
        }
        let mut acks = Vec::new();
        for seg in to_recv.drain(..) {
            segments += 1;
            for a in receiver.on_segment(&seg, now) {
                if let ReceiverAction::Transmit(ack) = a {
                    acks.push(ack);
                }
            }
        }
        for ack in acks {
            segments += 1;
            to_recv.extend(transmits(sender.on_segment(&ack, now)));
        }
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_exchange_completes() {
        assert!(mac_join().is_some(), "MAC handshake did not converge");
        assert!(dhcp_exchange().is_some(), "DHCP exchange did not bind");
        assert!(tcp_transfer() > 1_000_000 / 1_500, "transfer too short");
        assert_eq!(queue_churn(64), 8_192);
    }

    #[test]
    fn probes_report_every_layer_metric() {
        let world = crate::workloads::Workload::Fig5Drive
            .world(1, 0)
            .expect("world workload");
        let metrics = run_all(&ProbeInputs::from_world(&world, 300, &world));
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        for name in [
            "sim_engine.queue_ns",
            "geo.disc_query_ns",
            "wifi_mac.frame_codec_ns",
            "wifi_mac.phy_ns",
            "wifi_mac.join_ns",
            "dhcp.exchange_ns",
            "mobility.position_ns",
            "tcp.segment_ns",
        ] {
            assert!(names.contains(&name), "missing {name}");
        }
        assert!(metrics.iter().all(|m| m.value > 0.0));
    }
}
