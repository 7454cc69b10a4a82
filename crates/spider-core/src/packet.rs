//! The data path's payload: the IP packets Wi-Fi data frames carry
//! between a client and an AP.

use dhcp::message::DhcpMessage;
use sim_engine::wire::Writer;
use tcp_lite::segment::Segment;
use wifi_mac::frame::Payload;

/// IP protocol number of UDP, which carries DHCP.
const PROTO_UDP: u8 = 17;
/// IP protocol number of TCP.
const PROTO_TCP: u8 = 6;

/// An IP packet on the data path: a DHCP message or a TCP segment,
/// carried through frames, queues and events as a typed value.
///
/// Its byte form is a 1-byte IP protocol number (17 = UDP for DHCP,
/// 6 = TCP) followed by the message's encoding. The simulation never
/// builds it: airtime is charged for [`Payload::wire_len`] bytes, and the
/// codec ([`Payload::encode_into`], [`Packet::decode`]) is the oracle that
/// pins that length in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// A DHCP message (over UDP).
    Dhcp(DhcpMessage),
    /// A TCP segment.
    Tcp(Segment),
}

impl Payload for Packet {
    /// The protocol byte plus the message's encoded length. For a TCP
    /// segment that is [`Segment::encoded_len`], not [`Segment::wire_len`]
    /// (see the former's doc).
    fn wire_len(&self) -> usize {
        1 + match self {
            Packet::Dhcp(msg) => msg.wire_len(),
            Packet::Tcp(seg) => seg.encoded_len(),
        }
    }

    fn encode_into(&self, buf: &mut Writer) {
        match self {
            Packet::Dhcp(msg) => {
                buf.put_u8(PROTO_UDP);
                msg.encode_into(buf);
            }
            Packet::Tcp(seg) => {
                buf.put_u8(PROTO_TCP);
                seg.encode_into(buf);
            }
        }
    }
}

impl Packet {
    /// Decode the byte form [`Payload::encode_into`] writes; `None` on an
    /// unknown protocol number or a malformed message.
    pub fn decode(bytes: &[u8]) -> Option<Packet> {
        match bytes {
            [PROTO_UDP, body @ ..] => DhcpMessage::decode(body).ok().map(Packet::Dhcp),
            [PROTO_TCP, body @ ..] => Segment::decode(body).map(Packet::Tcp),
            _ => None,
        }
    }
}
