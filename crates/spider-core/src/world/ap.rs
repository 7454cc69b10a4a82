//! Access points: `wifi-mac::ApMac` (with honest PSM buffering), the
//! embedded `dhcp::DhcpServer` with per-AP response delays, the shaped
//! backhaul in both directions (`workload::SerialLink`), and the
//! `tcp_lite` bulk senders that play the content server behind each AP.

use dhcp::message::DhcpMessage;
use dhcp::server::{DhcpServer, DhcpServerConfig};
use mobility::deployment::ApSite;
use sim_engine::queue::EventId;
use sim_engine::rng::Rng;
use sim_engine::time::Duration;
use sim_engine::wire::Bytes;
use tcp_lite::connection::{BulkReceiver, BulkSender, SenderAction};
use tcp_lite::segment::Segment;
use wifi_mac::addr::MacAddr;
use wifi_mac::ap::{ApAction, ApConfig, ApMac};
use workload::shaper::SerialLink;

use super::join::IfaceTimer;
use super::{unwrap_proto, Sched, World, PROTO_TCP, PROTO_UDP};

/// One AP node: MAC + DHCP server + backhaul + content server.
pub(super) struct ApNode {
    pub(super) site: ApSite,
    pub(super) mac: ApMac,
    dhcp: DhcpServer,
    /// Server → AP pipe (the shaped backhaul).
    pub(super) downlink: SerialLink,
    /// AP → server pipe for ACKs.
    pub(super) uplink: SerialLink,
    /// Live content-server connections, sorted by connection id (ids are
    /// minted monotonically, so pushes keep the order). A handful at most
    /// per AP, so a linear scan beats an ordered map on the hot path.
    senders: Vec<ServerConn>,
}

/// One content-server connection: its TCP sender and its one queued RTO.
struct ServerConn {
    conn: u64,
    sender: BulkSender,
    /// The queued `SenderTimer` event and the token it will deliver. Each
    /// re-arm moves this event instead of queueing another, so at most
    /// one RTO event per connection is ever in the queue.
    rto: Option<(EventId, u64)>,
}

impl ApNode {
    pub(super) fn new(site: &ApSite, backhaul_latency: Duration) -> ApNode {
        let ssid = format!("open-{}", site.id);
        ApNode {
            site: site.clone(),
            mac: ApMac::new(ApConfig::open(site.id, &ssid, site.channel)),
            dhcp: DhcpServer::new(DhcpServerConfig::for_ap(
                site.id,
                site.dhcp_delay_min,
                site.dhcp_delay_max,
            )),
            downlink: SerialLink::new(site.backhaul_bps, backhaul_latency),
            uplink: SerialLink::new(site.backhaul_bps, backhaul_latency),
            senders: Vec::new(),
        }
    }

    fn conn_mut(&mut self, conn: u64) -> Option<&mut ServerConn> {
        self.senders.iter_mut().find(|c| c.conn == conn)
    }

    pub(super) fn remove_sender(&mut self, conn: u64) {
        // `retain` keeps the remaining connections in id order.
        self.senders.retain(|c| c.conn != conn);
    }
}

/// Events of the AP, backhaul and content-server layer.
#[derive(Debug)]
pub(super) enum ApEvent {
    /// TCP sender RTO at the content server behind AP `ap`; the token it
    /// delivers is the connection's latest (see `ServerConn::rto`).
    SenderTimer { ap: usize, conn: u64 },
    /// A TCP segment from the server arrives at AP `ap`.
    FromServer { ap: usize, payload: Bytes },
    /// A client TCP segment (ACK) arrives at the server behind AP `ap`.
    ToServer { ap: usize, payload: Bytes },
    /// The AP's local DHCP server finished processing; deliver the reply
    /// into the AP's downlink path.
    DhcpReply {
        ap: usize,
        station: MacAddr,
        payload: Bytes,
    },
}

impl World {
    pub(super) fn handle_ap(&mut self, event: ApEvent, sched: &mut Sched) {
        let now = sched.now;
        match event {
            ApEvent::SenderTimer { ap, conn } => {
                // The event has fired: the next arm queues a fresh one.
                let Some((_, token)) = self.aps[ap].conn_mut(conn).and_then(|c| c.rto.take())
                else {
                    return;
                };
                let rto = self.with_sender(ap, conn, sched, |sender, out| {
                    sender.on_timer_into(token, now, out);
                    out.iter().any(|a| matches!(a, SenderAction::Transmit(_)))
                });
                if rto == Some(true) {
                    self.tcp_rtos += 1;
                }
            }
            ApEvent::FromServer { ap, payload } => {
                // A TCP segment for one of our clients: deliver it to the
                // station its connection terminates at.
                let Some(seg) = unwrap_proto(&payload).and_then(|(_, body)| Segment::decode(body))
                else {
                    return;
                };
                let Some((client, iface)) = self.conn_owner(seg.conn) else {
                    return;
                };
                let station = self.clients[client].ifaces[iface].addr;
                self.with_ap_actions(ap, sched, |mac, _, out| {
                    mac.deliver_downlink_into(station, payload, now, out)
                });
            }
            ApEvent::ToServer { ap, payload } => {
                // The payload still carries its protocol tag (kept to make
                // the uplink enqueue copy-free); strip it here.
                let Some(seg) = unwrap_proto(&payload).and_then(|(_, body)| Segment::decode(body))
                else {
                    return;
                };
                self.with_sender(ap, seg.conn, sched, |sender, out| {
                    sender.on_segment_into(&seg, now, out)
                });
            }
            ApEvent::DhcpReply {
                ap,
                station,
                payload,
            } => self.with_ap_actions(ap, sched, |mac, _, out| {
                mac.deliver_downlink_into(station, payload, now, out)
            }),
        }
    }

    /// Feed one input to AP `ap`'s MAC and carry out the actions it emits.
    /// The action buffer is reused across events, so steady state
    /// allocates none.
    pub(super) fn with_ap_actions(
        &mut self,
        ap: usize,
        sched: &mut Sched,
        input: impl FnOnce(&mut ApMac, &mut Rng, &mut Vec<ApAction>),
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

    /// An uplink payload arrived at the AP from the client: route by the
    /// protocol tag.
    fn handle_uplink(&mut self, ap: usize, station: MacAddr, payload: Bytes, sched: &mut Sched) {
        let now = sched.now;
        match unwrap_proto(&payload) {
            Some((PROTO_UDP, body)) => {
                // DHCP: handled by the AP's embedded server.
                let Ok(msg) = DhcpMessage::decode(body) else {
                    return;
                };
                let node = &mut self.aps[ap];
                if let Some((delay, reply)) = node.dhcp.on_message(&msg, now, &mut self.rng_ap) {
                    let payload = self.tagged_payload(PROTO_UDP, |w| reply.encode_into(w));
                    let reply = ApEvent::DhcpReply {
                        ap,
                        station,
                        payload,
                    };
                    sched.after(delay, reply);
                }
            }
            Some((PROTO_TCP, body)) => {
                // ACK toward the content server: ride the uplink pipe. The
                // event keeps the tagged payload (an O(1) Bytes clone); the
                // handler strips the tag on arrival.
                if let Some(arrival) = self.aps[ap].uplink.transmit(now, body.len()) {
                    sched.at(arrival, ApEvent::ToServer { ap, payload });
                }
            }
            _ => {}
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
                    if let Some(arrival) = self.aps[ap].downlink.transmit(sched.now, len) {
                        let payload = self.tagged_payload(PROTO_TCP, |w| seg.encode_into(w));
                        sched.at(arrival, ApEvent::FromServer { ap, payload });
                    }
                }
                SenderAction::ArmTimer { after, token } => {
                    let Some(c) = self.aps[ap].conn_mut(conn) else {
                        continue;
                    };
                    let timer = ApEvent::SenderTimer { ap, conn };
                    let id = sched.rearm(c.rto.map(|(id, _)| id), after, timer);
                    c.rto = Some((id, token));
                }
                SenderAction::Connected => {}
                done @ (SenderAction::Complete | SenderAction::Aborted) => {
                    self.aps[ap].remove_sender(conn);
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

    /// The (client, iface) a live connection terminates at. Connection ids
    /// are minted from one world counter, an interface holds one only
    /// while Connected (`Iface::reset` clears it), and it never changes
    /// AP while it holds one, so at most one interface matches and it is
    /// bound to the AP whose sender owns the id.
    fn conn_owner(&self, conn: u64) -> Option<(usize, usize)> {
        self.clients.iter().enumerate().find_map(|(c, node)| {
            let iface = node.ifaces.iter().position(|i| i.conn == Some(conn))?;
            Some((c, iface))
        })
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
        let conn = self.next_conn;
        self.next_conn += 1;
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
