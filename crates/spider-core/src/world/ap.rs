//! Access points: `wifi-mac::ApMac` (with honest PSM buffering), the
//! embedded `dhcp::DhcpServer` with per-AP response delays, the shaped
//! backhaul in both directions (`workload::SerialLink`), and the
//! `tcp_lite` bulk senders that play the content server behind each AP.

use dhcp::message::DhcpMessage;
use dhcp::server::{DhcpServer, DhcpServerConfig};
use mobility::deployment::ApSite;
use sim_engine::queue::{EventId, EventQueue, LaneId};
use sim_engine::rng::Rng;
use sim_engine::time::Duration;
use tcp_lite::connection::{BulkReceiver, BulkSender, SenderAction};
use tcp_lite::segment::Segment;
use wifi_mac::addr::MacAddr;
use wifi_mac::ap::{ApAction, ApConfig, ApMac};
use workload::shaper::SerialLink;

use crate::packet::Packet;

use super::join::IfaceTimer;
use super::{Event, Sched, World};

/// One AP node: MAC + DHCP server + backhaul + content server.
pub(super) struct ApNode {
    pub(super) site: ApSite,
    pub(super) mac: ApMac<Packet>,
    dhcp: DhcpServer,
    /// Server → AP pipe (the shaped backhaul).
    pub(super) downlink: Backhaul,
    /// AP → server pipe for ACKs.
    pub(super) uplink: Backhaul,
    /// Live content-server connections, sorted by connection id (ids are
    /// minted monotonically, so pushes keep the order). A handful at most
    /// per AP, so a linear scan beats an ordered map on the hot path.
    senders: Vec<ServerConn>,
}

/// One direction of an AP's backhaul: the shaped pipe and the named
/// queue lane its arrivals ride. A `SerialLink` is FIFO with a fixed
/// latency, so its arrivals come in increasing time and always join the
/// lane's tail (see `sim_engine::queue`).
pub(super) struct Backhaul {
    pub(super) link: SerialLink,
    lane: LaneId,
}

impl Backhaul {
    fn new(site: &ApSite, latency: Duration, queue: &mut EventQueue<Event>) -> Backhaul {
        Backhaul {
            link: SerialLink::new(site.backhaul_bps, latency),
            lane: queue.add_named_lane(),
        }
    }

    /// Put `len` bytes on the pipe now and queue `event` for their
    /// arrival; nothing is queued if the pipe's bounded queue drops them.
    fn carry(&mut self, len: usize, event: ApEvent, sched: &mut Sched) {
        if let Some(arrival) = self.link.transmit(sched.now, len) {
            sched.queue.push_on(self.lane, arrival, event.into());
        }
    }
}

/// One content-server connection: its TCP sender and its one queued RTO.
struct ServerConn {
    conn: u64,
    sender: BulkSender,
    /// The queued `SenderTimer` event. Each re-arm moves it instead of
    /// queueing another, and removing the connection cancels it, so only
    /// the current arm ever fires.
    rto: Option<EventId>,
}

impl ApNode {
    pub(super) fn new(
        site: &ApSite,
        backhaul_latency: Duration,
        queue: &mut EventQueue<Event>,
    ) -> ApNode {
        let ssid = format!("open-{}", site.id);
        ApNode {
            site: site.clone(),
            mac: ApMac::new(ApConfig::open(site.id, &ssid, site.channel)),
            dhcp: DhcpServer::new(DhcpServerConfig::for_ap(
                site.id,
                site.dhcp_delay_min,
                site.dhcp_delay_max,
            )),
            downlink: Backhaul::new(site, backhaul_latency, queue),
            uplink: Backhaul::new(site, backhaul_latency, queue),
            senders: Vec::new(),
        }
    }

    fn conn_mut(&mut self, conn: u64) -> Option<&mut ServerConn> {
        self.senders.iter_mut().find(|c| c.conn == conn)
    }

    /// Drop connection `conn` and cancel its queued RTO.
    pub(super) fn remove_sender(&mut self, conn: u64, sched: &mut Sched) {
        if let Some(id) = self.conn_mut(conn).and_then(|c| c.rto) {
            sched.queue.cancel(id);
        }
        // `retain` keeps the remaining connections in id order.
        self.senders.retain(|c| c.conn != conn);
    }
}

/// Events of the AP, backhaul and content-server layer.
#[derive(Debug)]
pub(super) enum ApEvent {
    /// TCP sender RTO at the content server behind AP `ap`, the one
    /// queued timer of connection `conn` (see `ServerConn::rto`).
    SenderTimer { ap: usize, conn: u64 },
    /// A TCP segment from the server arrives at AP `ap`.
    FromServer { ap: usize, seg: Segment },
    /// A client TCP segment (ACK) arrives at the server behind AP `ap`.
    ToServer { ap: usize, seg: Segment },
    /// The AP's local DHCP server finished processing; deliver the reply
    /// into the AP's downlink path.
    DhcpReply {
        ap: usize,
        station: MacAddr,
        reply: DhcpMessage,
    },
}

impl World {
    pub(super) fn handle_ap(&mut self, event: ApEvent, sched: &mut Sched) {
        let now = sched.now;
        match event {
            ApEvent::SenderTimer { ap, conn } => {
                // The event has fired: the next arm queues a fresh one.
                let Some(c) = self.aps[ap].conn_mut(conn) else {
                    return;
                };
                c.rto = None;
                let rto = self.with_sender(ap, conn, sched, |sender, out| {
                    sender.on_timer_into(now, out);
                    out.iter().any(|a| matches!(a, SenderAction::Transmit(_)))
                });
                if rto == Some(true) {
                    self.tcp_rtos += 1;
                }
            }
            ApEvent::FromServer { ap, seg } => {
                // A TCP segment for one of our clients: deliver it to the
                // station its connection terminates at.
                let Some((client, iface)) = self.conn_owner(seg.conn) else {
                    return;
                };
                let station = self.clients[client].ifaces[iface].addr;
                self.with_ap_actions(ap, sched, |mac, _, out| {
                    mac.deliver_downlink_into(station, Packet::Tcp(seg), now, out)
                });
            }
            ApEvent::ToServer { ap, seg } => {
                self.with_sender(ap, seg.conn, sched, |sender, out| {
                    sender.on_segment_into(&seg, now, out)
                });
            }
            ApEvent::DhcpReply { ap, station, reply } => {
                self.with_ap_actions(ap, sched, |mac, _, out| {
                    mac.deliver_downlink_into(station, Packet::Dhcp(reply), now, out)
                })
            }
        }
    }

    /// Feed one input to AP `ap`'s MAC and carry out the actions it emits.
    /// The action buffer is reused across events, so steady state
    /// allocates none.
    pub(super) fn with_ap_actions(
        &mut self,
        ap: usize,
        sched: &mut Sched,
        input: impl FnOnce(&mut ApMac<Packet>, &mut Rng, &mut Vec<ApAction<Packet>>),
    ) {
        let mut actions = std::mem::take(&mut self.ap_actions_scratch);
        input(&mut self.aps[ap].mac, &mut self.rng_ap, &mut actions);
        for action in actions.drain(..) {
            match action {
                ApAction::Send { delay, frame } => self.ap_send(ap, frame, delay, sched),
                ApAction::ToUplink { from, payload } => {
                    self.handle_uplink(ap, from, payload, sched)
                }
            }
        }
        self.ap_actions_scratch = actions;
    }

    /// Feed one input to the sender of `conn` behind `ap` and carry out
    /// the actions it emits, through the reusable action buffer. `None`
    /// when the connection is gone.
    fn with_sender<R>(
        &mut self,
        ap: usize,
        conn: u64,
        sched: &mut Sched,
        input: impl FnOnce(&mut BulkSender, &mut Vec<SenderAction>) -> R,
    ) -> Option<R> {
        let sender = &mut self.aps[ap].conn_mut(conn)?.sender;
        let mut actions = std::mem::take(&mut self.sender_actions_scratch);
        let out = input(sender, &mut actions);
        self.process_sender_actions(ap, conn, &mut actions, sched);
        self.sender_actions_scratch = actions;
        Some(out)
    }

    /// An uplink packet arrived at the AP from the client: DHCP goes to
    /// the AP's embedded server, TCP up the backhaul to the content
    /// server.
    fn handle_uplink(&mut self, ap: usize, station: MacAddr, packet: Packet, sched: &mut Sched) {
        let now = sched.now;
        match packet {
            Packet::Dhcp(msg) => {
                let node = &mut self.aps[ap];
                if let Some((delay, reply)) = node.dhcp.on_message(&msg, now, &mut self.rng_ap) {
                    sched.after(delay, ApEvent::DhcpReply { ap, station, reply });
                }
            }
            Packet::Tcp(seg) => {
                // The uplink charges the segment's encoded length (see
                // `Segment::encoded_len`).
                let len = seg.encoded_len();
                self.aps[ap]
                    .uplink
                    .carry(len, ApEvent::ToServer { ap, seg }, sched);
            }
        }
    }

    fn process_sender_actions(
        &mut self,
        ap: usize,
        conn: u64,
        actions: &mut Vec<SenderAction>,
        sched: &mut Sched,
    ) {
        for action in actions.drain(..) {
            match action {
                SenderAction::Transmit(seg) => {
                    let len = seg.wire_len() as usize;
                    let event = ApEvent::FromServer { ap, seg };
                    self.aps[ap].downlink.carry(len, event, sched);
                }
                SenderAction::ArmTimer { after } => {
                    let Some(c) = self.aps[ap].conn_mut(conn) else {
                        continue;
                    };
                    let timer = ApEvent::SenderTimer { ap, conn };
                    c.rto = Some(sched.rearm(c.rto, after, timer));
                }
                SenderAction::Connected => {}
                done @ (SenderAction::Complete | SenderAction::Aborted) => {
                    self.aps[ap].remove_sender(conn, sched);
                    let Some((client, iface)) = self.conn_owner(conn) else {
                        continue;
                    };
                    // A finished object waits out the plan's think time
                    // before the next one; a connection that died of
                    // timeouts is replaced at once.
                    let think = match done {
                        SenderAction::Complete => self.cfg.plan.think_time(),
                        _ => Duration::ZERO,
                    };
                    if think.is_zero() {
                        self.open_connection(client, iface, ap, sched);
                    } else {
                        let timer = IfaceTimer::NextObject { ap };
                        self.arm_iface_timer(client, iface, think, timer, sched);
                    }
                }
            }
        }
    }

    /// The (client, iface) holding connection id `conn`, if any. Each id
    /// is minted once, for one interface (`conn_owners`), and only
    /// `open_connection` sets an interface's id, so no other interface
    /// can hold it. That interface holds it until it opens its next
    /// connection or is reset, which may be after the sender completed;
    /// it never changes AP while it holds one, so it is bound to the AP
    /// whose sender owns the id.
    fn conn_owner(&self, conn: u64) -> Option<(usize, usize)> {
        let &(client, iface) = self.conn_owners.get(conn.checked_sub(1)? as usize)?;
        let holds = self.clients[client].ifaces[iface].conn == Some(conn);
        holds.then_some((client, iface))
    }

    /// Open a TCP connection for the plan's next object from the server
    /// behind `ap` toward interface `iface` of `client`.
    pub(super) fn open_connection(
        &mut self,
        client: usize,
        iface: usize,
        ap: usize,
        sched: &mut Sched,
    ) {
        let conn = self.conn_owners.len() as u64 + 1;
        self.conn_owners.push((client, iface));
        let node = &mut self.clients[client];
        let isn = node.rng_misc.next_u64() as u32;
        let object = self
            .cfg
            .plan
            .next_object_rng(&mut node.rng_misc)
            .min(self.cfg.bytes_per_connection);
        let mut sender = BulkSender::new(self.cfg.tcp.clone(), conn, object, isn);
        let mut actions = sender.start(sched.now);
        self.aps[ap].senders.push(ServerConn {
            conn,
            sender,
            rto: None,
        });
        node.ifaces[iface].conn = Some(conn);
        node.ifaces[iface].receiver = Some(BulkReceiver::new(conn));
        self.process_sender_actions(ap, conn, &mut actions, sched);
    }
}
