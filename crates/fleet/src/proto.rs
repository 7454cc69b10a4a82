//! The scheduler ↔ worker message protocol.
//!
//! Every message is one frame: a 4-byte big-endian payload length followed
//! by the payload, whose first byte is the message tag. Payloads are built
//! on [`sim_engine::wire`]; `WorldConfig` crosses the boundary through
//! [`spider_core::codec`]. Strings are u32-length-prefixed UTF-8.
//!
//! The protocol is versioned twice over: [`PROTOCOL_VERSION`] covers the
//! frame layout, and the `Hello.code_fingerprint` (the campaign cache
//! fingerprint of the worker binary) covers the *semantics* — two binaries
//! that would hash shards differently must never share a fleet, or the
//! content-addressed cache would mix records from different code.

use sim_engine::wire::{Reader, WireError, Writer};
use spider_core::codec::{self, CodecError};
use spider_core::WorldConfig;
use std::io::{self, Read, Write};

/// Frame-layout version carried in every `Hello`. Bump on any change to
/// the message encoding.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a single frame. A `Done` frame carries one `RunRecord`
/// JSON (tens of kilobytes); anything near this limit is corruption.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// One protocol message.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Worker → scheduler, once, immediately after spawn.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        protocol_version: u32,
        /// The worker binary's campaign code fingerprint.
        code_fingerprint: String,
    },
    /// Scheduler → worker: run this shard.
    Assign {
        /// Shard label, echoed back in `Done`/`Error`.
        shard: String,
        /// The full configuration to simulate (boxed: a `WorldConfig`
        /// is hundreds of bytes, the other variants a few words).
        world: Box<WorldConfig>,
    },
    /// Worker → scheduler: shard finished.
    Done {
        /// The label from `Assign`.
        shard: String,
        /// Lossless `RunRecord` JSON, byte-identical to what an
        /// in-process run would have produced.
        record_json: String,
        /// Diagnostics: events delivered by the DES.
        events_delivered: u64,
        /// Diagnostics: peak live event-queue depth.
        peak_queue_depth: u64,
        /// Worker-side wall time for the shard, ms.
        wall_ms: u64,
    },
    /// Worker → scheduler: shard failed in a way the worker survived.
    Error {
        /// The label from `Assign`.
        shard: String,
        /// Human-readable cause.
        reason: String,
    },
    /// Scheduler → worker: drain and exit cleanly.
    Shutdown,
}

/// Why a payload failed to decode.
#[derive(Debug)]
pub enum ProtoError {
    /// Payload ended before the message did.
    Truncated(WireError),
    /// Bad tag, bad bool, non-UTF-8 string, trailing bytes, …
    Invalid(&'static str),
    /// The embedded `WorldConfig` failed to decode.
    World(CodecError),
}

impl core::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtoError::Truncated(e) => write!(f, "fleet proto: {e}"),
            ProtoError::Invalid(what) => write!(f, "fleet proto: invalid {what}"),
            ProtoError::World(e) => write!(f, "fleet proto: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> ProtoError {
        ProtoError::Truncated(e)
    }
}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> ProtoError {
        ProtoError::World(e)
    }
}

const TAG_HELLO: u8 = 0;
const TAG_ASSIGN: u8 = 1;
const TAG_DONE: u8 = 2;
const TAG_ERROR: u8 = 3;
const TAG_SHUTDOWN: u8 = 4;

fn put_string(w: &mut Writer, s: &str) {
    w.put_u32(s.len() as u32);
    w.put_slice(s.as_bytes());
}

fn get_string(r: &mut Reader) -> Result<String, ProtoError> {
    let len = r.get_u32()? as usize;
    let raw = r.take(len)?;
    String::from_utf8(raw.to_vec()).map_err(|_| ProtoError::Invalid("utf-8 string"))
}

impl Msg {
    /// Encode to a payload (without the frame length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        match self {
            Msg::Hello {
                protocol_version,
                code_fingerprint,
            } => {
                w.put_u8(TAG_HELLO);
                w.put_u32(*protocol_version);
                put_string(&mut w, code_fingerprint);
            }
            Msg::Assign { shard, world } => {
                w.put_u8(TAG_ASSIGN);
                put_string(&mut w, shard);
                codec::encode_world_into(world, &mut w);
            }
            Msg::Done {
                shard,
                record_json,
                events_delivered,
                peak_queue_depth,
                wall_ms,
            } => {
                w.put_u8(TAG_DONE);
                put_string(&mut w, shard);
                put_string(&mut w, record_json);
                w.put_u64(*events_delivered);
                w.put_u64(*peak_queue_depth);
                w.put_u64(*wall_ms);
            }
            Msg::Error { shard, reason } => {
                w.put_u8(TAG_ERROR);
                put_string(&mut w, shard);
                put_string(&mut w, reason);
            }
            Msg::Shutdown => w.put_u8(TAG_SHUTDOWN),
        }
        w.into_vec()
    }

    /// Decode a payload produced by [`Msg::encode`]. The whole payload
    /// must be consumed.
    pub fn decode(buf: &[u8]) -> Result<Msg, ProtoError> {
        let mut r = Reader::new(buf);
        let msg = match r.get_u8()? {
            TAG_HELLO => Msg::Hello {
                protocol_version: r.get_u32()?,
                code_fingerprint: get_string(&mut r)?,
            },
            TAG_ASSIGN => {
                let shard = get_string(&mut r)?;
                let world = Box::new(codec::decode_world(r.rest())?);
                return Ok(Msg::Assign { shard, world });
            }
            TAG_DONE => Msg::Done {
                shard: get_string(&mut r)?,
                record_json: get_string(&mut r)?,
                events_delivered: r.get_u64()?,
                peak_queue_depth: r.get_u64()?,
                wall_ms: r.get_u64()?,
            },
            TAG_ERROR => Msg::Error {
                shard: get_string(&mut r)?,
                reason: get_string(&mut r)?,
            },
            TAG_SHUTDOWN => Msg::Shutdown,
            _ => return Err(ProtoError::Invalid("message tag")),
        };
        if !r.is_empty() {
            return Err(ProtoError::Invalid("trailing bytes"));
        }
        Ok(msg)
    }
}

/// Write one framed message and flush it.
pub fn write_msg<W: Write>(out: &mut W, msg: &Msg) -> io::Result<()> {
    let payload = msg.encode();
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "fleet proto: frame exceeds MAX_FRAME_LEN",
        ));
    }
    out.write_all(&(payload.len() as u32).to_be_bytes())?;
    out.write_all(&payload)?;
    out.flush()
}

/// Read one framed message. `Ok(None)` means the stream ended cleanly at
/// a frame boundary; EOF inside a frame is an error.
pub fn read_msg<R: Read>(input: &mut R) -> io::Result<Option<Msg>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = input.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "fleet proto: EOF inside frame header",
            ));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "fleet proto: frame length exceeds MAX_FRAME_LEN",
        ));
    }
    let mut payload = vec![0u8; len as usize];
    input.read_exact(&mut payload)?;
    Msg::decode(&payload)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::deployment::ApSite;
    use mobility::geometry::Point;
    use sim_engine::time::Duration;
    use spider_core::config::SpiderConfig;
    use spider_core::ClientMotion;
    use wifi_mac::channel::Channel;

    fn sample_world() -> WorldConfig {
        WorldConfig::new(
            99,
            vec![ApSite {
                id: 1,
                position: Point::new(0.0, 20.0),
                channel: Channel::CH1,
                backhaul_bps: 2_000_000,
                dhcp_delay_min: Duration::from_millis(10),
                dhcp_delay_max: Duration::from_millis(30),
            }],
            ClientMotion::Fixed(Point::new(0.0, 0.0)),
            SpiderConfig::single_channel_multi_ap(Channel::CH1),
            Duration::from_secs(5),
        )
    }

    fn round_trip(msg: &Msg) -> Msg {
        Msg::decode(&msg.encode()).expect("decode")
    }

    #[test]
    fn every_message_round_trips() {
        let msgs = vec![
            Msg::Hello {
                protocol_version: PROTOCOL_VERSION,
                code_fingerprint: "spider-campaign/0.1.0/record-v1/rev-1".into(),
            },
            Msg::Assign {
                shard: "25%".into(),
                world: Box::new(sample_world()),
            },
            Msg::Done {
                shard: "25%".into(),
                record_json: "{\"v\":1}".into(),
                events_delivered: 123_456,
                peak_queue_depth: 789,
                wall_ms: 42,
            },
            Msg::Error {
                shard: "50%".into(),
                reason: "non-finite field".into(),
            },
            Msg::Shutdown,
        ];
        for msg in &msgs {
            let back = round_trip(msg);
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn truncated_payload_rejected() {
        let msg = Msg::Assign {
            shard: "x".into(),
            world: Box::new(sample_world()),
        };
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            assert!(Msg::decode(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    /// A worker must answer a bad world with a decode error, not run it:
    /// a zero-rate backhaul used to decode and then panic mid-`run`.
    #[test]
    fn assign_with_zero_backhaul_is_a_proto_error() {
        let mut world = sample_world();
        world.sites[0].backhaul_bps = 0;
        let msg = Msg::Assign {
            shard: "x".into(),
            world: Box::new(world),
        };
        assert!(matches!(
            Msg::decode(&msg.encode()),
            Err(ProtoError::World(CodecError::Invalid("backhaul rate")))
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            Msg::decode(&[200]),
            Err(ProtoError::Invalid("message tag"))
        ));
    }

    #[test]
    fn framing_round_trips_and_clean_eof_is_none() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &Msg::Shutdown).expect("write");
        write_msg(
            &mut buf,
            &Msg::Error {
                shard: "s".into(),
                reason: "r".into(),
            },
        )
        .expect("write");
        let mut cursor = io::Cursor::new(buf);
        assert!(matches!(read_msg(&mut cursor), Ok(Some(Msg::Shutdown))));
        assert!(matches!(read_msg(&mut cursor), Ok(Some(Msg::Error { .. }))));
        assert!(matches!(read_msg(&mut cursor), Ok(None)));
    }

    #[test]
    fn eof_inside_frame_is_an_error() {
        let mut whole = Vec::new();
        write_msg(
            &mut whole,
            &Msg::Hello {
                protocol_version: 1,
                code_fingerprint: "f".into(),
            },
        )
        .expect("write");
        for cut in 1..whole.len() {
            let mut cursor = io::Cursor::new(&whole[..cut]);
            assert!(read_msg(&mut cursor).is_err(), "prefix {cut} accepted");
        }
    }

    #[test]
    fn oversize_frame_header_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        buf.extend_from_slice(&[0; 8]);
        let mut cursor = io::Cursor::new(buf);
        assert!(read_msg(&mut cursor).is_err());
    }
}
