//! TCP segments as they travel through the simulated network.
//!
//! A segment carries real header fields (connection id, sequence/ack
//! numbers, flags) and a compact simulation encoding, but its payload is
//! *virtual*: only the length travels, since the experiments measure bytes
//! and timing, never content. Two lengths exist, and links charge
//! different ones: [`Segment::wire_len`] is the full IP + TCP + payload
//! size, and [`Segment::encoded_len`] is the size of the compact encoding.
//! Each one's doc names the links that charge it.

use core::fmt;
use sim_engine::wire::{Bytes, Reader, Writer};

use crate::seq::SeqNum;

/// IPv4 (20) + TCP (20) header bytes charged per segment on the wire.
pub const HEADER_OVERHEAD: u32 = 40;

/// A TCP segment (virtual payload — see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Flow identifier (stands in for the 4-tuple).
    pub conn: u64,
    /// Sequence number of the first payload byte (or the SYN/FIN).
    pub seq: SeqNum,
    /// Cumulative acknowledgement, if the ACK flag is set.
    pub ack: Option<SeqNum>,
    /// Virtual payload length in bytes.
    pub len: u32,
    /// SYN flag.
    pub syn: bool,
    /// FIN flag.
    pub fin: bool,
    /// SACK blocks (RFC 2018): up to three `(start, len)` runs the
    /// receiver holds above the cumulative ACK.
    pub sack: [Option<(SeqNum, u32)>; 3],
    /// Timestamp value (RFC 7323 TSval): the sender's clock in µs.
    pub ts_us: u64,
    /// Timestamp echo (TSecr): the TSval of the segment this ACK answers.
    /// Gives retransmission-safe RTT samples (Karn-free).
    pub ts_echo_us: Option<u64>,
}

impl Segment {
    /// A pure ACK.
    pub fn ack_only(conn: u64, seq: SeqNum, ack: SeqNum) -> Segment {
        Segment {
            conn,
            seq,
            ack: Some(ack),
            len: 0,
            syn: false,
            fin: false,
            sack: [None; 3],
            ts_us: 0,
            ts_echo_us: None,
        }
    }

    /// A data segment.
    pub fn data(conn: u64, seq: SeqNum, len: u32) -> Segment {
        Segment {
            conn,
            seq,
            ack: None,
            len,
            syn: false,
            fin: false,
            sack: [None; 3],
            ts_us: 0,
            ts_echo_us: None,
        }
    }

    /// Sequence space this segment occupies (payload + SYN/FIN flags).
    pub fn seq_len(&self) -> u32 {
        self.len + u32::from(self.syn) + u32::from(self.fin)
    }

    /// The sequence number following this segment.
    pub fn seq_end(&self) -> SeqNum {
        self.seq + self.seq_len()
    }

    /// Bytes this segment would occupy on a real link: IP and TCP headers
    /// plus the virtual payload.
    ///
    /// In the world simulation only the downlink backhaul (server to AP)
    /// charges this length. The air and the uplink backhaul charge
    /// [`Segment::encoded_len`] instead.
    pub fn wire_len(&self) -> u32 {
        HEADER_OVERHEAD + self.len
    }

    /// Bytes of the compact simulation encoding ([`Segment::encode`]):
    /// 32 fixed, plus 8 per SACK block and 8 for a timestamp echo.
    /// Computed without encoding.
    ///
    /// This, not [`Segment::wire_len`], is what the world simulation
    /// charges a segment in two places, both kept as they are so that
    /// recorded runs stay comparable:
    ///
    /// * the air, which charges a TCP data frame for its 1-byte protocol
    ///   tag plus this encoding. A 1460-byte data segment goes on the air
    ///   as a 65-byte frame, not a 1525-byte one, so it takes about a
    ///   third of the airtime and sees a far lower frame error than the
    ///   segment it stands for;
    /// * the uplink backhaul (AP to server), which charges an ACK this
    ///   length, where the downlink charges [`Segment::wire_len`].
    pub fn encoded_len(&self) -> usize {
        let blocks = self.sack.iter().flatten().count();
        32 + 8 * blocks + if self.ts_echo_us.is_some() { 8 } else { 0 }
    }

    /// Encode to the compact simulation wire format
    /// ([`Segment::encoded_len`] bytes).
    pub fn encode(&self) -> Bytes {
        let mut buf = Writer::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Encode into an existing [`Writer`]; hot paths reuse one scratch
    /// buffer across segments instead of allocating per encode.
    pub fn encode_into(&self, buf: &mut Writer) {
        buf.put_u64(self.conn);
        buf.put_u32(self.seq.value());
        match self.ack {
            Some(a) => {
                buf.put_u8(1);
                buf.put_u32(a.value());
            }
            None => {
                buf.put_u8(0);
                buf.put_u32(0);
            }
        }
        buf.put_u32(self.len);
        let flags = u8::from(self.syn) | (u8::from(self.fin) << 1);
        buf.put_u8(flags);
        let blocks = self.sack.iter().flatten().count() as u8;
        buf.put_u8(blocks);
        for (start, len) in self.sack.iter().flatten() {
            buf.put_u32(start.value());
            buf.put_u32(*len);
        }
        buf.put_u64(self.ts_us);
        match self.ts_echo_us {
            Some(e) => {
                buf.put_u8(1);
                buf.put_u64(e);
            }
            None => buf.put_u8(0),
        }
    }

    /// Decode from the simulation wire format.
    pub fn decode(bytes: &[u8]) -> Option<Segment> {
        let mut buf = Reader::new(bytes);
        let conn = buf.get_u64().ok()?;
        let seq = SeqNum::new(buf.get_u32().ok()?);
        let has_ack = buf.get_u8().ok()? != 0;
        let ack_raw = buf.get_u32().ok()?;
        let len = buf.get_u32().ok()?;
        let flags = buf.get_u8().ok()?;
        let blocks = buf.get_u8().ok()?.min(3);
        let mut sack = [None; 3];
        for slot in sack.iter_mut().take(blocks as usize) {
            let start = SeqNum::new(buf.get_u32().ok()?);
            let block_len = buf.get_u32().ok()?;
            *slot = Some((start, block_len));
        }
        let ts_us = buf.get_u64().ok()?;
        let has_echo = buf.get_u8().ok()? != 0;
        let ts_echo_us = if has_echo {
            Some(buf.get_u64().ok()?)
        } else {
            None
        };
        Some(Segment {
            conn,
            seq,
            ack: has_ack.then(|| SeqNum::new(ack_raw)),
            len,
            syn: flags & 1 != 0,
            fin: flags & 2 != 0,
            sack,
            ts_us,
            ts_echo_us,
        })
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn{} seq={}", self.conn, self.seq)?;
        if let Some(a) = self.ack {
            write!(f, " ack={a}")?;
        }
        if self.syn {
            write!(f, " SYN")?;
        }
        if self.fin {
            write!(f, " FIN")?;
        }
        write!(f, " len={}", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let mut with_sack = Segment::ack_only(9, SeqNum::new(4), SeqNum::new(100));
        with_sack.sack = [
            Some((SeqNum::new(200), 1000)),
            Some((SeqNum::new(5000), 1460)),
            None,
        ];
        let cases = [
            Segment::data(7, SeqNum::new(100), 1460),
            {
                let mut s = Segment::data(1, SeqNum::new(0), 0);
                s.ack = Some(SeqNum::new(1));
                s.syn = true;
                s.ts_us = 123_456;
                s
            },
            {
                let mut s = Segment::data(u64::MAX, SeqNum::new(u32::MAX), 3);
                s.ack = Some(SeqNum::new(5));
                s.fin = true;
                s.ts_echo_us = Some(9_999);
                s
            },
            with_sack,
        ];
        for s in cases {
            assert_eq!(s.encode().len(), s.encoded_len());
            assert_eq!(Segment::decode(&s.encode()), Some(s));
        }
    }

    #[test]
    fn decode_short_buffer_is_none() {
        assert_eq!(Segment::decode(&[0u8; 10]), None);
    }

    #[test]
    fn seq_len_counts_flags() {
        let mut syn = Segment::data(0, SeqNum::new(9), 0);
        syn.syn = true;
        assert_eq!(syn.seq_len(), 1);
        assert_eq!(syn.seq_end(), SeqNum::new(10));
        let data = Segment::data(0, SeqNum::new(10), 1000);
        assert_eq!(data.seq_len(), 1000);
        let mut fin = Segment::data(0, SeqNum::new(1010), 5);
        fin.fin = true;
        assert_eq!(fin.seq_len(), 6);
    }

    #[test]
    fn wire_len_includes_headers() {
        assert_eq!(Segment::data(0, SeqNum::new(0), 1460).wire_len(), 1500);
        assert_eq!(
            Segment::ack_only(0, SeqNum::new(0), SeqNum::new(1)).wire_len(),
            40
        );
    }
}
