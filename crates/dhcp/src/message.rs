//! DHCP message wire format (RFC 2131/2132 subset).
//!
//! Messages round-trip through the genuine BOOTP layout — fixed 236-byte
//! header, magic cookie, then TLV options — because the cost the paper
//! measures is a protocol cost: four messages (DISCOVER/OFFER/REQUEST/ACK),
//! each of which can be lost while the virtualized radio is off-channel.
//!
//! Implemented options are the ones the exchange needs: message type (53),
//! requested IP (50), server identifier (54), lease time (51), subnet mask
//! (1), router (3), end (255). Unknown options are skipped on decode, as a
//! real client does.

use core::fmt;
use sim_engine::wire::{Bytes, Reader, WireError, Writer};
use std::net::Ipv4Addr;

/// BOOTP op: client request.
pub const OP_REQUEST: u8 = 1;
/// BOOTP op: server reply.
pub const OP_REPLY: u8 = 2;

const MAGIC_COOKIE: u32 = 0x6382_5363;
const OPT_SUBNET: u8 = 1;
const OPT_ROUTER: u8 = 3;
const OPT_REQUESTED_IP: u8 = 50;
const OPT_LEASE_TIME: u8 = 51;
const OPT_MSG_TYPE: u8 = 53;
const OPT_SERVER_ID: u8 = 54;
const OPT_END: u8 = 255;
const OPT_PAD: u8 = 0;

/// DHCP message type (option 53).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageType {
    /// Client broadcast to locate servers.
    Discover,
    /// Server offer of an address.
    Offer,
    /// Client request of the offered (or cached) address.
    Request,
    /// Server acknowledgement: the lease is granted.
    Ack,
    /// Server refusal.
    Nak,
}

impl MessageType {
    fn to_wire(self) -> u8 {
        match self {
            MessageType::Discover => 1,
            MessageType::Offer => 2,
            MessageType::Request => 3,
            MessageType::Ack => 5,
            MessageType::Nak => 6,
        }
    }

    fn from_wire(v: u8) -> Option<MessageType> {
        Some(match v {
            1 => MessageType::Discover,
            2 => MessageType::Offer,
            3 => MessageType::Request,
            5 => MessageType::Ack,
            6 => MessageType::Nak,
            _ => return None,
        })
    }
}

impl fmt::Display for MessageType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessageType::Discover => "DISCOVER",
            MessageType::Offer => "OFFER",
            MessageType::Request => "REQUEST",
            MessageType::Ack => "ACK",
            MessageType::Nak => "NAK",
        };
        write!(f, "{s}")
    }
}

/// Decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DhcpError {
    /// Buffer shorter than the layout requires.
    Truncated,
    /// Magic cookie mismatch — not a DHCP packet.
    BadCookie,
    /// Missing or unknown message-type option.
    BadMessageType,
    /// An option's length field overruns the buffer.
    BadOption,
}

impl fmt::Display for DhcpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DhcpError::Truncated => write!(f, "DHCP message truncated"),
            DhcpError::BadCookie => write!(f, "bad DHCP magic cookie"),
            DhcpError::BadMessageType => write!(f, "missing/unknown DHCP message type"),
            DhcpError::BadOption => write!(f, "malformed DHCP option"),
        }
    }
}

impl std::error::Error for DhcpError {}

impl From<WireError> for DhcpError {
    fn from(_: WireError) -> DhcpError {
        DhcpError::Truncated
    }
}

/// A DHCP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhcpMessage {
    /// BOOTP op code ([`OP_REQUEST`] / [`OP_REPLY`]).
    pub op: u8,
    /// Transaction id chosen by the client; replies echo it.
    pub xid: u32,
    /// Seconds since the client began acquisition.
    pub secs: u16,
    /// Client's current IP (`0.0.0.0` during acquisition).
    pub ciaddr: Ipv4Addr,
    /// "Your" address: the one being offered/assigned.
    pub yiaddr: Ipv4Addr,
    /// Client hardware (MAC) address.
    pub chaddr: [u8; 6],
    /// Option 53.
    pub msg_type: MessageType,
    /// Option 50: the address the client asks for (REQUEST / INIT-REBOOT).
    pub requested_ip: Option<Ipv4Addr>,
    /// Option 54: which server the client selected / which server replies.
    pub server_id: Option<Ipv4Addr>,
    /// Option 51: lease duration in seconds.
    pub lease_secs: Option<u32>,
    /// Option 1.
    pub subnet_mask: Option<Ipv4Addr>,
    /// Option 3.
    pub router: Option<Ipv4Addr>,
}

impl DhcpMessage {
    /// A client DISCOVER.
    pub fn discover(xid: u32, chaddr: [u8; 6]) -> DhcpMessage {
        DhcpMessage {
            op: OP_REQUEST,
            xid,
            secs: 0,
            ciaddr: Ipv4Addr::UNSPECIFIED,
            yiaddr: Ipv4Addr::UNSPECIFIED,
            chaddr,
            msg_type: MessageType::Discover,
            requested_ip: None,
            server_id: None,
            lease_secs: None,
            subnet_mask: None,
            router: None,
        }
    }

    /// A server OFFER of `ip` with the given lease.
    pub fn offer(
        xid: u32,
        chaddr: [u8; 6],
        ip: Ipv4Addr,
        server: Ipv4Addr,
        lease_secs: u32,
    ) -> DhcpMessage {
        DhcpMessage {
            op: OP_REPLY,
            xid,
            secs: 0,
            ciaddr: Ipv4Addr::UNSPECIFIED,
            yiaddr: ip,
            chaddr,
            msg_type: MessageType::Offer,
            requested_ip: None,
            server_id: Some(server),
            lease_secs: Some(lease_secs),
            subnet_mask: Some(Ipv4Addr::new(255, 255, 255, 0)),
            router: Some(server),
        }
    }

    /// A client REQUEST for `ip` from `server`.
    pub fn request(xid: u32, chaddr: [u8; 6], ip: Ipv4Addr, server: Ipv4Addr) -> DhcpMessage {
        DhcpMessage {
            op: OP_REQUEST,
            xid,
            secs: 0,
            ciaddr: Ipv4Addr::UNSPECIFIED,
            yiaddr: Ipv4Addr::UNSPECIFIED,
            chaddr,
            msg_type: MessageType::Request,
            requested_ip: Some(ip),
            server_id: Some(server),
            lease_secs: None,
            subnet_mask: None,
            router: None,
        }
    }

    /// A server ACK granting `ip`.
    pub fn ack(
        xid: u32,
        chaddr: [u8; 6],
        ip: Ipv4Addr,
        server: Ipv4Addr,
        lease_secs: u32,
    ) -> DhcpMessage {
        DhcpMessage {
            msg_type: MessageType::Ack,
            ..DhcpMessage::offer(xid, chaddr, ip, server, lease_secs)
        }
    }

    /// A server NAK.
    pub fn nak(xid: u32, chaddr: [u8; 6], server: Ipv4Addr) -> DhcpMessage {
        DhcpMessage {
            op: OP_REPLY,
            xid,
            secs: 0,
            ciaddr: Ipv4Addr::UNSPECIFIED,
            yiaddr: Ipv4Addr::UNSPECIFIED,
            chaddr,
            msg_type: MessageType::Nak,
            requested_ip: None,
            server_id: Some(server),
            lease_secs: None,
            subnet_mask: None,
            router: None,
        }
    }

    /// Encode to wire bytes (BOOTP header + magic + options).
    pub fn encode(&self) -> Bytes {
        let mut buf = Writer::with_capacity(self.wire_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Encode into an existing [`Writer`], appending exactly
    /// [`DhcpMessage::wire_len`] bytes; lets hot paths reuse one scratch
    /// buffer across encodes.
    pub fn encode_into(&self, buf: &mut Writer) {
        buf.put_u8(self.op);
        buf.put_u8(1); // htype: Ethernet
        buf.put_u8(6); // hlen
        buf.put_u8(0); // hops
        buf.put_u32(self.xid);
        buf.put_u16(self.secs);
        buf.put_u16(0); // flags
        buf.put_slice(&self.ciaddr.octets());
        buf.put_slice(&self.yiaddr.octets());
        buf.put_slice(&[0u8; 4]); // siaddr
        buf.put_slice(&[0u8; 4]); // giaddr
        buf.put_slice(&self.chaddr);
        buf.put_slice(&[0u8; 10]); // chaddr padding to 16
        buf.put_slice(&[0u8; 64]); // sname
        buf.put_slice(&[0u8; 128]); // file
        buf.put_u32(MAGIC_COOKIE);

        buf.put_u8(OPT_MSG_TYPE);
        buf.put_u8(1);
        buf.put_u8(self.msg_type.to_wire());
        if let Some(ip) = self.requested_ip {
            buf.put_u8(OPT_REQUESTED_IP);
            buf.put_u8(4);
            buf.put_slice(&ip.octets());
        }
        if let Some(ip) = self.server_id {
            buf.put_u8(OPT_SERVER_ID);
            buf.put_u8(4);
            buf.put_slice(&ip.octets());
        }
        if let Some(secs) = self.lease_secs {
            buf.put_u8(OPT_LEASE_TIME);
            buf.put_u8(4);
            buf.put_u32(secs);
        }
        if let Some(ip) = self.subnet_mask {
            buf.put_u8(OPT_SUBNET);
            buf.put_u8(4);
            buf.put_slice(&ip.octets());
        }
        if let Some(ip) = self.router {
            buf.put_u8(OPT_ROUTER);
            buf.put_u8(4);
            buf.put_slice(&ip.octets());
        }
        buf.put_u8(OPT_END);
    }

    /// Decode from wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<DhcpMessage, DhcpError> {
        let mut buf = Reader::new(bytes);
        let op = buf.get_u8()?;
        let _htype = buf.get_u8()?;
        let _hlen = buf.get_u8()?;
        let _hops = buf.get_u8()?;
        let xid = buf.get_u32()?;
        let secs = buf.get_u16()?;
        let _flags = buf.get_u16()?;
        let ciaddr = take_ip(&mut buf)?;
        let yiaddr = take_ip(&mut buf)?;
        let _siaddr = take_ip(&mut buf)?;
        let _giaddr = take_ip(&mut buf)?;
        let mut chaddr = [0u8; 6];
        buf.read_exact(&mut chaddr)?;
        buf.advance(10 + 64 + 128)?;
        if buf.get_u32()? != MAGIC_COOKIE {
            return Err(DhcpError::BadCookie);
        }

        let mut msg_type = None;
        let mut requested_ip = None;
        let mut server_id = None;
        let mut lease_secs = None;
        let mut subnet_mask = None;
        let mut router = None;
        while buf.remaining() > 0 {
            let code = buf.get_u8()?;
            if code == OPT_END {
                break;
            }
            if code == OPT_PAD {
                continue;
            }
            // A truncated option is a malformed option, not a short packet.
            let len = buf.get_u8().map_err(|_| DhcpError::BadOption)? as usize;
            let payload = buf.take(len).map_err(|_| DhcpError::BadOption)?;
            match code {
                OPT_MSG_TYPE => {
                    if len != 1 {
                        return Err(DhcpError::BadOption);
                    }
                    msg_type = MessageType::from_wire(payload[0]);
                    if msg_type.is_none() {
                        return Err(DhcpError::BadMessageType);
                    }
                }
                OPT_REQUESTED_IP => requested_ip = Some(ip_from(payload)?),
                OPT_SERVER_ID => server_id = Some(ip_from(payload)?),
                OPT_LEASE_TIME => {
                    if len != 4 {
                        return Err(DhcpError::BadOption);
                    }
                    lease_secs = Some(u32::from_be_bytes([
                        payload[0], payload[1], payload[2], payload[3],
                    ]));
                }
                OPT_SUBNET => subnet_mask = Some(ip_from(payload)?),
                OPT_ROUTER => router = Some(ip_from(payload)?),
                _ => {} // skip unknown options
            }
        }
        Ok(DhcpMessage {
            op,
            xid,
            secs,
            ciaddr,
            yiaddr,
            chaddr,
            msg_type: msg_type.ok_or(DhcpError::BadMessageType)?,
            requested_ip,
            server_id,
            lease_secs,
            subnet_mask,
            router,
        })
    }

    /// Size on the wire (used for airtime accounting).
    ///
    /// Computed arithmetically — no encode, no allocation. Fixed cost is
    /// the 236-byte BOOTP header, the 4-byte magic cookie, the 3-byte
    /// message-type option and the END byte; each present optional option
    /// adds its 6-byte TLV. A property test pins `wire_len()` to
    /// `encode().len()` over generated messages.
    pub fn wire_len(&self) -> usize {
        let optional = [
            self.requested_ip.is_some(),
            self.server_id.is_some(),
            self.lease_secs.is_some(),
            self.subnet_mask.is_some(),
            self.router.is_some(),
        ]
        .iter()
        .filter(|&&p| p)
        .count();
        236 + 4 + 3 + 6 * optional + 1
    }
}

fn take_ip(buf: &mut Reader<'_>) -> Result<Ipv4Addr, DhcpError> {
    let mut o = [0u8; 4];
    buf.read_exact(&mut o)?;
    Ok(Ipv4Addr::from(o))
}

fn ip_from(payload: &[u8]) -> Result<Ipv4Addr, DhcpError> {
    if payload.len() != 4 {
        return Err(DhcpError::BadOption);
    }
    Ok(Ipv4Addr::new(
        payload[0], payload[1], payload[2], payload[3],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CH: [u8; 6] = [2, 0, 0, 0, 0, 1];
    const SRV: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 42);

    fn roundtrip(m: &DhcpMessage) -> DhcpMessage {
        DhcpMessage::decode(&m.encode()).expect("decode of encoded message")
    }

    #[test]
    fn discover_roundtrip() {
        let m = DhcpMessage::discover(0xDEAD_BEEF, CH);
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn offer_roundtrip_keeps_lease_and_server() {
        let m = DhcpMessage::offer(1, CH, IP, SRV, 3600);
        let d = roundtrip(&m);
        assert_eq!(d.yiaddr, IP);
        assert_eq!(d.server_id, Some(SRV));
        assert_eq!(d.lease_secs, Some(3600));
        assert_eq!(d, m);
    }

    #[test]
    fn request_ack_nak_release_roundtrip() {
        for m in [
            DhcpMessage::request(2, CH, IP, SRV),
            DhcpMessage::ack(2, CH, IP, SRV, 600),
            DhcpMessage::nak(2, CH, SRV),
        ] {
            assert_eq!(roundtrip(&m), m);
        }
        // A RELEASE (type 7) does not round-trip: no station leaves
        // gracefully, so the type is not modelled.
        let mut bytes = DhcpMessage::request(3, CH, IP, SRV).encode().to_vec();
        assert_eq!(bytes[240..243], [OPT_MSG_TYPE, 1, 3]);
        bytes[242] = 7;
        assert_eq!(DhcpMessage::decode(&bytes), Err(DhcpError::BadMessageType));
    }

    #[test]
    fn wire_len_is_bootp_sized() {
        let m = DhcpMessage::discover(1, CH);
        // 236 header + 4 cookie + 3 msg-type + 1 end = 244.
        assert_eq!(m.wire_len(), 244);
        let full = DhcpMessage::ack(1, CH, IP, SRV, 60);
        assert!(full.wire_len() > m.wire_len());
    }

    #[test]
    fn truncated_fails_cleanly() {
        let bytes = DhcpMessage::discover(1, CH).encode();
        assert_eq!(
            DhcpMessage::decode(&bytes[..200]),
            Err(DhcpError::Truncated)
        );
        assert_eq!(DhcpMessage::decode(&[]), Err(DhcpError::Truncated));
    }

    #[test]
    fn bad_cookie_rejected() {
        let mut bytes = DhcpMessage::discover(1, CH).encode().to_vec();
        bytes[236] ^= 0xFF;
        assert_eq!(DhcpMessage::decode(&bytes), Err(DhcpError::BadCookie));
    }

    #[test]
    fn missing_msg_type_rejected() {
        let mut bytes = DhcpMessage::discover(1, CH).encode().to_vec();
        // Overwrite the msg-type option with pad bytes.
        bytes[240] = OPT_PAD;
        bytes[241] = OPT_PAD;
        bytes[242] = OPT_PAD;
        assert_eq!(DhcpMessage::decode(&bytes), Err(DhcpError::BadMessageType));
        // Type 7 (RELEASE) is not modelled: no station leaves gracefully.
        let mut bytes = DhcpMessage::discover(1, CH).encode().to_vec();
        assert_eq!(bytes[240..243], [OPT_MSG_TYPE, 1, 1]);
        bytes[242] = 7;
        assert_eq!(DhcpMessage::decode(&bytes), Err(DhcpError::BadMessageType));
    }

    #[test]
    fn unknown_options_skipped() {
        let mut bytes = DhcpMessage::discover(7, CH).encode().to_vec();
        // Replace END with an unknown option then END.
        let end = bytes.len() - 1;
        bytes[end] = 42; // unknown code
        bytes.push(2); // len
        bytes.push(0xAA);
        bytes.push(0xBB);
        bytes.push(OPT_END);
        let d = DhcpMessage::decode(&bytes).unwrap();
        assert_eq!(d.xid, 7);
        assert_eq!(d.msg_type, MessageType::Discover);
    }

    #[test]
    fn overrunning_option_rejected() {
        let mut bytes = DhcpMessage::discover(7, CH).encode().to_vec();
        let end = bytes.len() - 1;
        bytes[end] = 50; // requested-ip
        bytes.push(200); // claims 200 bytes, buffer has none
        assert_eq!(DhcpMessage::decode(&bytes), Err(DhcpError::BadOption));
    }

    #[test]
    fn xid_and_chaddr_echoed() {
        let m = DhcpMessage::ack(0x1234_5678, CH, IP, SRV, 60);
        let d = roundtrip(&m);
        assert_eq!(d.xid, 0x1234_5678);
        assert_eq!(d.chaddr, CH);
        assert_eq!(d.op, OP_REPLY);
    }
}
