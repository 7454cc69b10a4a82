//! 802.11 frame formats: the subset a vehicular multi-AP client exercises.
//!
//! Frames round-trip through real byte layouts (an 802.11 header subset with
//! information elements) so the substrate is a protocol implementation
//! rather than a label-passing toy. The supported set covers everything the
//! paper's join and data paths need:
//!
//! * management: beacon, probe request/response, open-system authentication,
//!   association request/response, deauthentication;
//! * data: data frames and the null-data frame whose *power management* bit
//!   is how Spider (and Virtual Wi-Fi/FatVAP/Juggler before it) asks an AP
//!   to buffer traffic while the radio serves another channel.
//!
//! Layout notes: frames are little-endian as on the air. No control frame
//! is modelled: a decoded one is [`FrameError::Unsupported`]. FCS is not
//! carried — frame loss is the PHY model's job, not a checksum's.
//!
//! A data frame's payload is a type parameter bounded by [`Payload`]: the
//! frame needs only its wire length (for airtime) and, for the byte codec,
//! its encoding. It defaults to raw [`Bytes`]; a simulator that routes
//! typed packets supplies its own type and never encodes on the hot path.

use core::fmt;
use sim_engine::wire::{Bytes, Reader, WireError, Writer};

use crate::addr::MacAddr;
use crate::channel::Channel;

/// Frame type field values (2 bits).
mod ftype {
    pub const MGMT: u8 = 0;
    pub const CTRL: u8 = 1;
    pub const DATA: u8 = 2;
}

/// Frame subtype field values (4 bits) for the frames we implement.
mod subtype {
    pub const ASSOC_REQ: u8 = 0;
    pub const ASSOC_RESP: u8 = 1;
    pub const PROBE_REQ: u8 = 4;
    pub const PROBE_RESP: u8 = 5;
    pub const BEACON: u8 = 8;
    pub const AUTH: u8 = 11;
    pub const DEAUTH: u8 = 12;
    pub const DATA: u8 = 0;
    pub const NULL: u8 = 4;
}

/// Information-element ids.
mod ie {
    pub const SSID: u8 = 0;
    pub const DS_PARAMS: u8 = 3;
}

/// Capability-field bits advertised in beacons and probe responses.
pub mod capability {
    /// Infrastructure BSS.
    pub const ESS: u16 = 1 << 0;
    /// WEP/WPA required. The paper uses *open* APs only; Spider filters on
    /// this bit when selecting candidates.
    pub const PRIVACY: u16 = 1 << 4;
}

/// 802.11 open-system authentication algorithm number.
pub const AUTH_ALGORITHM_OPEN: u16 = 0;

/// Status code: success.
pub const STATUS_SUCCESS: u16 = 0;
/// Status code: unspecified failure.
pub const STATUS_FAILURE: u16 = 1;
/// Status code: AP association table is full.
pub const STATUS_AP_FULL: u16 = 17;

/// Reason code: inactivity timeout.
pub const REASON_INACTIVITY: u16 = 4;

/// Decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer ended before the layout said it should.
    Truncated,
    /// Frame type/subtype combination we do not implement.
    Unsupported {
        /// 2-bit type field.
        ftype: u8,
        /// 4-bit subtype field.
        subtype: u8,
    },
    /// A malformed information element.
    BadElement,
    /// SSID longer than the 32-byte limit.
    SsidTooLong,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::Unsupported { ftype, subtype } => {
                write!(f, "unsupported frame type {ftype}/subtype {subtype}")
            }
            FrameError::BadElement => write!(f, "malformed information element"),
            FrameError::SsidTooLong => write!(f, "SSID exceeds 32 bytes"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(_: WireError) -> FrameError {
        FrameError::Truncated
    }
}

/// An SSID: up to 32 octets, conventionally UTF-8.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ssid(Vec<u8>);

impl Ssid {
    /// Construct from text.
    ///
    /// # Panics
    /// Panics if longer than 32 bytes (caller bug, not wire input).
    pub fn new(s: &str) -> Ssid {
        assert!(s.len() <= 32, "SSID too long: {s:?}");
        Ssid(s.as_bytes().to_vec())
    }

    /// Construct from raw octets (wire input).
    pub fn from_bytes(b: &[u8]) -> Result<Ssid, FrameError> {
        if b.len() > 32 {
            return Err(FrameError::SsidTooLong);
        }
        Ok(Ssid(b.to_vec()))
    }

    /// The wildcard (zero-length) SSID: what a probe request without an
    /// SSID element decodes to.
    pub fn wildcard() -> Ssid {
        Ssid(Vec::new())
    }

    /// True for the wildcard SSID.
    pub fn is_wildcard(&self) -> bool {
        self.0.is_empty()
    }

    /// Raw octets.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Display for Ssid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_wildcard() {
            write!(f, "<wildcard>")
        } else {
            write!(f, "{}", String::from_utf8_lossy(&self.0))
        }
    }
}

/// Body of a beacon or probe response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeaconBody {
    /// TSF timestamp in microseconds.
    pub timestamp_us: u64,
    /// Beacon interval in time units (1 TU = 1024 µs).
    pub interval_tu: u16,
    /// Capability field; see [`capability`].
    pub capability: u16,
    /// Network name.
    pub ssid: Ssid,
    /// The channel the AP operates on (DS parameter set).
    pub channel: Channel,
}

impl BeaconBody {
    /// What an open AP advertises: the ESS capability and the ubiquitous
    /// 100 TU (102.4 ms) beacon interval.
    pub fn advertising(ssid: Ssid, channel: Channel, timestamp_us: u64) -> BeaconBody {
        BeaconBody {
            timestamp_us,
            interval_tu: 100,
            capability: capability::ESS,
            ssid,
            channel,
        }
    }
}

/// Body of an authentication frame (open system only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthBody {
    /// Authentication algorithm; 0 = open system.
    pub algorithm: u16,
    /// Transaction sequence: 1 = request, 2 = response.
    pub transaction: u16,
    /// Status code (responses; 0 in requests).
    pub status: u16,
}

/// Body of an association request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssocReqBody {
    /// Capability field the station claims.
    pub capability: u16,
    /// Listen interval in beacon intervals (relevant to PSM buffering).
    pub listen_interval: u16,
    /// The SSID the station associates to.
    pub ssid: Ssid,
}

/// Body of an association response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssocRespBody {
    /// Capability field.
    pub capability: u16,
    /// Status code; [`STATUS_SUCCESS`] grants the association.
    pub status: u16,
    /// Association id (AID) assigned by the AP.
    pub aid: u16,
}

/// What a data frame carries. Airtime is charged for
/// [`Payload::wire_len`] bytes, so it must equal the number of bytes
/// [`Payload::encode_into`] appends; the encoding exists for the byte
/// codec ([`Frame::encode`]), not for the simulation's data path.
pub trait Payload: Clone {
    /// Bytes the payload occupies in a data frame.
    fn wire_len(&self) -> usize;
    /// Append exactly [`Payload::wire_len`] bytes of encoding.
    fn encode_into(&self, buf: &mut Writer);
}

/// Raw octets: the payload [`Frame::decode`] produces.
impl Payload for Bytes {
    fn wire_len(&self) -> usize {
        self.len()
    }

    fn encode_into(&self, buf: &mut Writer) {
        buf.put_slice(self);
    }
}

/// The typed body of a frame; `P` is the data payload (see [`Payload`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameBody<P = Bytes> {
    /// Periodic AP advertisement.
    Beacon(BeaconBody),
    /// Active-scan solicitation (body carries the sought SSID).
    ProbeReq {
        /// Sought SSID.
        ssid: Ssid,
    },
    /// Unicast reply to a probe request; same layout as a beacon.
    ProbeResp(BeaconBody),
    /// Open-system authentication request/response.
    Auth(AuthBody),
    /// Association request.
    AssocReq(AssocReqBody),
    /// Association response.
    AssocResp(AssocRespBody),
    /// Deauthentication notice with a reason code.
    Deauth {
        /// Reason code.
        reason: u16,
    },
    /// A data frame (an IP packet in this workspace).
    Data(P),
    /// Null-data frame: no payload, exists to carry the power-management
    /// bit. Spider sends one with `power_mgmt = true` to every associated AP
    /// on a channel right before switching away.
    Null,
}

impl<P> FrameBody<P> {
    fn type_subtype(&self) -> (u8, u8) {
        match self {
            FrameBody::AssocReq(_) => (ftype::MGMT, subtype::ASSOC_REQ),
            FrameBody::AssocResp(_) => (ftype::MGMT, subtype::ASSOC_RESP),
            FrameBody::ProbeReq { .. } => (ftype::MGMT, subtype::PROBE_REQ),
            FrameBody::ProbeResp(_) => (ftype::MGMT, subtype::PROBE_RESP),
            FrameBody::Beacon(_) => (ftype::MGMT, subtype::BEACON),
            FrameBody::Auth(_) => (ftype::MGMT, subtype::AUTH),
            FrameBody::Deauth { .. } => (ftype::MGMT, subtype::DEAUTH),
            FrameBody::Data(_) => (ftype::DATA, subtype::DATA),
            FrameBody::Null => (ftype::DATA, subtype::NULL),
        }
    }

    /// Short human-readable tag for traces.
    pub fn kind(&self) -> &'static str {
        match self {
            FrameBody::Beacon(_) => "beacon",
            FrameBody::ProbeReq { .. } => "probe-req",
            FrameBody::ProbeResp(_) => "probe-resp",
            FrameBody::Auth(a) if a.transaction == 1 => "auth-req",
            FrameBody::Auth(_) => "auth-resp",
            FrameBody::AssocReq(_) => "assoc-req",
            FrameBody::AssocResp(_) => "assoc-resp",
            FrameBody::Deauth { .. } => "deauth",
            FrameBody::Data(_) => "data",
            FrameBody::Null => "null",
        }
    }
}

/// A complete 802.11 frame.
///
/// For management and data frames `addr1` is the receiver, `addr2` the
/// transmitter and `addr3` the BSSID. Control frames carry fewer addresses
/// on the wire; on decode the missing fields are filled from the present
/// ones (documented on [`Frame::decode`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<P = Bytes> {
    /// Receiver address.
    pub addr1: MacAddr,
    /// Transmitter address.
    pub addr2: MacAddr,
    /// BSSID.
    pub addr3: MacAddr,
    /// Sequence number (12 bits used).
    pub seq: u16,
    /// Duration field (µs).
    pub duration: u16,
    /// Power-management bit: station is entering power-save mode. The
    /// centrepiece of virtualized Wi-Fi.
    pub power_mgmt: bool,
    /// More-data bit: the AP holds further buffered frames for this station.
    pub more_data: bool,
    /// Retransmission bit.
    pub retry: bool,
    /// To-DS bit (station → distribution system).
    pub to_ds: bool,
    /// From-DS bit (distribution system → station).
    pub from_ds: bool,
    /// Typed body.
    pub body: FrameBody<P>,
}

impl<P> Frame<P> {
    /// Base constructor with flag defaults; prefer the specific helpers.
    pub fn new(addr1: MacAddr, addr2: MacAddr, addr3: MacAddr, body: FrameBody<P>) -> Frame<P> {
        Frame {
            addr1,
            addr2,
            addr3,
            seq: 0,
            duration: 0,
            power_mgmt: false,
            more_data: false,
            retry: false,
            to_ds: false,
            from_ds: false,
            body,
        }
    }

    /// A directed probe request from `station` asking `bssid` for `ssid`.
    pub fn probe_request(station: MacAddr, bssid: MacAddr, ssid: Ssid) -> Frame<P> {
        Frame::new(bssid, station, bssid, FrameBody::ProbeReq { ssid })
    }

    /// A unicast probe response from `bssid` to `station`.
    pub fn probe_response(
        bssid: MacAddr,
        station: MacAddr,
        ssid: Ssid,
        channel: Channel,
        timestamp_us: u64,
    ) -> Frame<P> {
        let body = BeaconBody::advertising(ssid, channel, timestamp_us);
        Frame::new(station, bssid, bssid, FrameBody::ProbeResp(body))
    }

    /// An open-system authentication request from `station` to `bssid`.
    pub fn auth_request(station: MacAddr, bssid: MacAddr) -> Frame<P> {
        Frame::new(
            bssid,
            station,
            bssid,
            FrameBody::Auth(AuthBody {
                algorithm: AUTH_ALGORITHM_OPEN,
                transaction: 1,
                status: STATUS_SUCCESS,
            }),
        )
    }

    /// The AP's authentication response.
    pub fn auth_response(bssid: MacAddr, station: MacAddr, status: u16) -> Frame<P> {
        Frame::new(
            station,
            bssid,
            bssid,
            FrameBody::Auth(AuthBody {
                algorithm: AUTH_ALGORITHM_OPEN,
                transaction: 2,
                status,
            }),
        )
    }

    /// An association request from `station` to `bssid`.
    pub fn assoc_request(station: MacAddr, bssid: MacAddr, ssid: Ssid) -> Frame<P> {
        Frame::new(
            bssid,
            station,
            bssid,
            FrameBody::AssocReq(AssocReqBody {
                capability: capability::ESS,
                listen_interval: 10,
                ssid,
            }),
        )
    }

    /// The AP's association response granting (or refusing) AID `aid`.
    pub fn assoc_response(bssid: MacAddr, station: MacAddr, status: u16, aid: u16) -> Frame<P> {
        Frame::new(
            station,
            bssid,
            bssid,
            FrameBody::AssocResp(AssocRespBody {
                capability: capability::ESS,
                status,
                aid,
            }),
        )
    }

    /// A station→AP data frame (to-DS set).
    pub fn data_to_ap(station: MacAddr, bssid: MacAddr, payload: P) -> Frame<P> {
        let mut f = Frame::new(bssid, station, bssid, FrameBody::Data(payload));
        f.to_ds = true;
        f
    }

    /// An AP→station data frame (from-DS set).
    pub fn data_from_ap(bssid: MacAddr, station: MacAddr, payload: P) -> Frame<P> {
        let mut f = Frame::new(station, bssid, bssid, FrameBody::Data(payload));
        f.from_ds = true;
        f
    }

    /// The null-data frame announcing entry into power-save mode. Sending
    /// this is how a virtualized client asks the AP to buffer its downlink
    /// traffic before the radio leaves the channel.
    pub fn psm_enter(station: MacAddr, bssid: MacAddr) -> Frame<P> {
        let mut f = Frame::new(bssid, station, bssid, FrameBody::Null);
        f.power_mgmt = true;
        f.to_ds = true;
        f
    }

    /// The null-data frame announcing exit from power-save mode (radio is
    /// back on this AP's channel; resume normal delivery).
    pub fn psm_exit(station: MacAddr, bssid: MacAddr) -> Frame<P> {
        let mut f = Frame::new(bssid, station, bssid, FrameBody::Null);
        f.power_mgmt = false;
        f.to_ds = true;
        f
    }

    /// True if this frame is addressed to `me` (or broadcast).
    pub fn is_for(&self, me: MacAddr) -> bool {
        self.addr1 == me || self.addr1.is_broadcast()
    }
}

impl<P: Payload> Frame<P> {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = Writer::with_capacity(self.wire_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Encode into an existing [`Writer`], appending exactly
    /// [`Frame::wire_len`] bytes. Hot paths keep one scratch `Writer` and
    /// call this between [`Writer::clear`]s to avoid a per-frame buffer
    /// allocation.
    pub fn encode_into(&self, buf: &mut Writer) {
        let (t, s) = self.body.type_subtype();
        let mut fc: u16 = ((t as u16) << 2) | ((s as u16) << 4);
        if self.to_ds {
            fc |= 1 << 8;
        }
        if self.from_ds {
            fc |= 1 << 9;
        }
        if self.retry {
            fc |= 1 << 11;
        }
        if self.power_mgmt {
            fc |= 1 << 12;
        }
        if self.more_data {
            fc |= 1 << 13;
        }
        buf.put_u16_le(fc);
        buf.put_u16_le(self.duration);
        buf.put_slice(&self.addr1.octets());
        buf.put_slice(&self.addr2.octets());
        buf.put_slice(&self.addr3.octets());
        buf.put_u16_le(self.seq << 4); // fragment number 0

        match &self.body {
            FrameBody::Beacon(b) | FrameBody::ProbeResp(b) => {
                buf.put_u64_le(b.timestamp_us);
                buf.put_u16_le(b.interval_tu);
                buf.put_u16_le(b.capability);
                put_ssid_ie(buf, &b.ssid);
                buf.put_u8(ie::DS_PARAMS);
                buf.put_u8(1);
                buf.put_u8(b.channel.number());
            }
            FrameBody::ProbeReq { ssid } => {
                put_ssid_ie(buf, ssid);
            }
            FrameBody::Auth(a) => {
                buf.put_u16_le(a.algorithm);
                buf.put_u16_le(a.transaction);
                buf.put_u16_le(a.status);
            }
            FrameBody::AssocReq(a) => {
                buf.put_u16_le(a.capability);
                buf.put_u16_le(a.listen_interval);
                put_ssid_ie(buf, &a.ssid);
            }
            FrameBody::AssocResp(a) => {
                buf.put_u16_le(a.capability);
                buf.put_u16_le(a.status);
                buf.put_u16_le(a.aid);
            }
            FrameBody::Deauth { reason } => buf.put_u16_le(*reason),
            FrameBody::Data(payload) => payload.encode_into(buf),
            FrameBody::Null => {}
        }
    }

    /// The frame's size on the wire in bytes (header + body, no FCS).
    ///
    /// Computed arithmetically from the layout — no encode, no allocation —
    /// so airtime accounting can ask for frame sizes on the per-event hot
    /// path. Kept in lockstep with [`Frame::encode`] by a property test
    /// (`wire_len() == encode().len()` over generated frames).
    pub fn wire_len(&self) -> usize {
        // A 24-byte header (FC, duration, three addresses, sequence
        // control) plus the typed body.
        24 + match &self.body {
            FrameBody::Beacon(b) | FrameBody::ProbeResp(b) => beacon_body_len(&b.ssid),
            FrameBody::ProbeReq { ssid } => ssid_ie_len(ssid),
            FrameBody::Auth(_) => 6,
            FrameBody::AssocReq(a) => 2 + 2 + ssid_ie_len(&a.ssid),
            FrameBody::AssocResp(_) => 6,
            FrameBody::Deauth { .. } => 2,
            FrameBody::Data(payload) => payload.wire_len(),
            FrameBody::Null => 0,
        }
    }
}

/// The byte frame. These take no payload, so on the generic frame the
/// payload type would be left for the caller to name; here
/// `Frame::beacon(..).encode()` and `Frame::decode(..)` need no
/// annotation. A typed beacon is [`Frame::new`] with
/// [`BeaconBody::advertising`].
impl Frame {
    /// A broadcast beacon from `bssid`.
    pub fn beacon(bssid: MacAddr, ssid: Ssid, channel: Channel, timestamp_us: u64) -> Frame {
        let body = BeaconBody::advertising(ssid, channel, timestamp_us);
        Frame::new(MacAddr::BROADCAST, bssid, bssid, FrameBody::Beacon(body))
    }

    /// The wire length of a beacon or probe response advertising `ssid`.
    /// It depends on nothing else, so a beacon's airtime is known without
    /// building the frame.
    pub fn beacon_len(ssid: &Ssid) -> usize {
        24 + beacon_body_len(ssid)
    }

    /// Decode from wire bytes; a data frame's payload comes back as raw
    /// bytes. Every control frame is [`FrameError::Unsupported`].
    pub fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
        let mut buf = Reader::new(bytes);
        let fc = buf.get_u16_le()?;
        let t = ((fc >> 2) & 0x3) as u8;
        let s = ((fc >> 4) & 0xF) as u8;
        let to_ds = fc & (1 << 8) != 0;
        let from_ds = fc & (1 << 9) != 0;
        let retry = fc & (1 << 11) != 0;
        let power_mgmt = fc & (1 << 12) != 0;
        let more_data = fc & (1 << 13) != 0;

        // Checked before the header is read: a control frame's header is
        // shorter than the one below.
        if t == ftype::CTRL {
            return Err(FrameError::Unsupported {
                ftype: t,
                subtype: s,
            });
        }

        let duration = buf.get_u16_le()?;
        let addr1 = take_addr(&mut buf)?;
        let addr2 = take_addr(&mut buf)?;
        let addr3 = take_addr(&mut buf)?;
        let seq = buf.get_u16_le()? >> 4;

        let body = match (t, s) {
            (ftype::MGMT, subtype::BEACON) => FrameBody::Beacon(decode_beacon_body(&mut buf)?),
            (ftype::MGMT, subtype::PROBE_RESP) => {
                FrameBody::ProbeResp(decode_beacon_body(&mut buf)?)
            }
            (ftype::MGMT, subtype::PROBE_REQ) => {
                let elements = decode_elements(buf.rest())?;
                FrameBody::ProbeReq {
                    ssid: elements.ssid.unwrap_or_else(Ssid::wildcard),
                }
            }
            (ftype::MGMT, subtype::AUTH) => FrameBody::Auth(AuthBody {
                algorithm: buf.get_u16_le()?,
                transaction: buf.get_u16_le()?,
                status: buf.get_u16_le()?,
            }),
            (ftype::MGMT, subtype::ASSOC_REQ) => {
                let cap = buf.get_u16_le()?;
                let li = buf.get_u16_le()?;
                let elements = decode_elements(buf.rest())?;
                FrameBody::AssocReq(AssocReqBody {
                    capability: cap,
                    listen_interval: li,
                    ssid: elements.ssid.ok_or(FrameError::BadElement)?,
                })
            }
            (ftype::MGMT, subtype::ASSOC_RESP) => FrameBody::AssocResp(AssocRespBody {
                capability: buf.get_u16_le()?,
                status: buf.get_u16_le()?,
                aid: buf.get_u16_le()?,
            }),
            (ftype::MGMT, subtype::DEAUTH) => FrameBody::Deauth {
                reason: buf.get_u16_le()?,
            },
            (ftype::DATA, subtype::DATA) => FrameBody::Data(Bytes::copy_from_slice(buf.rest())),
            (ftype::DATA, subtype::NULL) => FrameBody::Null,
            _ => {
                return Err(FrameError::Unsupported {
                    ftype: t,
                    subtype: s,
                })
            }
        };

        Ok(Frame {
            addr1,
            addr2,
            addr3,
            seq,
            duration,
            power_mgmt,
            more_data,
            retry,
            to_ds,
            from_ds,
            body,
        })
    }
}

/// A beacon or probe-response body's length: timestamp, interval,
/// capability, SSID IE, DS IE.
fn beacon_body_len(ssid: &Ssid) -> usize {
    8 + 2 + 2 + ssid_ie_len(ssid) + 3
}

/// An SSID information element's length: type byte, length byte, then the
/// bytes.
fn ssid_ie_len(ssid: &Ssid) -> usize {
    2 + ssid.as_bytes().len()
}

fn take_addr(buf: &mut Reader<'_>) -> Result<MacAddr, FrameError> {
    let mut octets = [0u8; 6];
    buf.read_exact(&mut octets)?;
    Ok(MacAddr(octets))
}

fn put_ssid_ie(buf: &mut Writer, ssid: &Ssid) {
    buf.put_u8(ie::SSID);
    buf.put_u8(ssid.as_bytes().len() as u8);
    buf.put_slice(ssid.as_bytes());
}

struct Elements {
    ssid: Option<Ssid>,
    channel: Option<Channel>,
}

fn decode_elements(bytes: &[u8]) -> Result<Elements, FrameError> {
    let mut buf = Reader::new(bytes);
    let mut out = Elements {
        ssid: None,
        channel: None,
    };
    while buf.remaining() >= 2 {
        let id = buf.get_u8()?;
        let len = buf.get_u8()? as usize;
        let payload = buf.take(len).map_err(|_| FrameError::BadElement)?;
        match id {
            ie::SSID => out.ssid = Some(Ssid::from_bytes(payload)?),
            ie::DS_PARAMS => {
                if len != 1 {
                    return Err(FrameError::BadElement);
                }
                out.channel = Channel::new(payload[0]);
                if out.channel.is_none() {
                    return Err(FrameError::BadElement);
                }
            }
            _ => {} // unknown IEs are skipped, as on real hardware
        }
    }
    if buf.remaining() != 0 {
        return Err(FrameError::BadElement);
    }
    Ok(out)
}

fn decode_beacon_body(buf: &mut Reader<'_>) -> Result<BeaconBody, FrameError> {
    let timestamp_us = buf.get_u64_le()?;
    let interval_tu = buf.get_u16_le()?;
    let capability = buf.get_u16_le()?;
    let elements = decode_elements(buf.rest())?;
    Ok(BeaconBody {
        timestamp_us,
        interval_tu,
        capability,
        ssid: elements.ssid.ok_or(FrameError::BadElement)?,
        channel: elements.channel.ok_or(FrameError::BadElement)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sta() -> MacAddr {
        MacAddr::local(1)
    }
    fn ap() -> MacAddr {
        MacAddr::ap(7)
    }

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = frame.encode();
        Frame::decode(&bytes).expect("decode of encoded frame")
    }

    #[test]
    fn beacon_roundtrip() {
        let f = Frame::beacon(ap(), Ssid::new("open-net"), Channel::CH6, 123_456);
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn probe_pair_roundtrip() {
        let req = Frame::probe_request(sta(), ap(), Ssid::new("x"));
        assert_eq!(roundtrip(&req), req);
        let resp = Frame::probe_response(ap(), sta(), Ssid::new("x"), Channel::CH1, 9);
        assert_eq!(roundtrip(&resp), resp);
    }

    #[test]
    fn auth_pair_roundtrip() {
        let req = Frame::auth_request(sta(), ap());
        assert_eq!(roundtrip(&req), req);
        let resp = Frame::auth_response(ap(), sta(), STATUS_SUCCESS);
        assert_eq!(roundtrip(&resp), resp);
        if let FrameBody::Auth(a) = &resp.body {
            assert_eq!(a.transaction, 2);
        } else {
            panic!("wrong body");
        }
    }

    #[test]
    fn assoc_pair_roundtrip() {
        let req = Frame::assoc_request(sta(), ap(), Ssid::new("net"));
        assert_eq!(roundtrip(&req), req);
        let resp = Frame::assoc_response(ap(), sta(), STATUS_SUCCESS, 3);
        assert_eq!(roundtrip(&resp), resp);
    }

    #[test]
    fn data_roundtrip_preserves_payload_and_ds_bits() {
        let payload = Bytes::from_static(b"GET / HTTP/1.1\r\n");
        let up = Frame::data_to_ap(sta(), ap(), payload.clone());
        let up2 = roundtrip(&up);
        assert!(up2.to_ds && !up2.from_ds);
        assert_eq!(up2.body, FrameBody::Data(payload.clone()));
        let down = Frame::data_from_ap(ap(), sta(), payload);
        let down2 = roundtrip(&down);
        assert!(down2.from_ds && !down2.to_ds);
    }

    #[test]
    fn psm_null_frames_carry_power_bit() {
        let enter = Frame::psm_enter(sta(), ap());
        assert!(roundtrip(&enter).power_mgmt);
        let exit = Frame::psm_exit(sta(), ap());
        assert!(!roundtrip(&exit).power_mgmt);
    }

    #[test]
    fn disassoc_deauth_roundtrip() {
        let d: Frame = Frame::new(
            sta(),
            ap(),
            ap(),
            FrameBody::Deauth {
                reason: REASON_INACTIVITY,
            },
        );
        assert_eq!(roundtrip(&d), d);
        // The same frame typed as a disassociation (subtype 10) does not
        // round-trip: the AP's idle expiry is the only way a station leaves.
        let mut bytes = d.encode().to_vec();
        assert_eq!(bytes[0], 12 << 4);
        bytes[0] = 10 << 4;
        assert_eq!(
            Frame::decode(&bytes),
            Err(FrameError::Unsupported {
                ftype: 0,
                subtype: 10
            })
        );
    }

    #[test]
    fn sequence_number_survives() {
        let mut f = Frame::beacon(ap(), Ssid::new("s"), Channel::CH11, 0);
        f.seq = 0xABC;
        assert_eq!(roundtrip(&f).seq, 0xABC);
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        let f = Frame::beacon(ap(), Ssid::new("open-net"), Channel::CH6, 1);
        let bytes = f.encode();
        for cut in 0..bytes.len() {
            // Every prefix must decode to an error or a (different) valid
            // frame, never panic.
            let _ = Frame::decode(&bytes[..cut]);
        }
        assert_eq!(Frame::decode(&[]), Err(FrameError::Truncated));
    }

    #[test]
    fn unknown_subtype_is_unsupported() {
        // Management subtypes 6 (unused) and 10 (disassociation, which no
        // station sends: the AP's idle expiry is the only way one leaves),
        // each with a full header and a 2-byte body.
        for subtype in [6u8, 10] {
            let fc = u16::from(subtype) << 4;
            let mut bytes = fc.to_le_bytes().to_vec();
            bytes.resize(26, 0);
            assert_eq!(
                Frame::decode(&bytes),
                Err(FrameError::Unsupported { ftype: 0, subtype })
            );
        }
        // Control frames are not modelled: a PS-Poll (subtype 10, 16 bytes
        // on the air), an ACK (subtype 13, 10 bytes) and a bare control FC
        // are each unsupported, not truncated and not a panic.
        for (subtype, len) in [(10u8, 16), (13, 10), (13, 2)] {
            let fc = (1u16 << 2) | (u16::from(subtype) << 4);
            let mut bytes = fc.to_le_bytes().to_vec();
            bytes.resize(len, 0);
            assert_eq!(
                Frame::decode(&bytes),
                Err(FrameError::Unsupported { ftype: 1, subtype })
            );
        }
    }

    #[test]
    fn is_for_matches_unicast_and_broadcast() {
        let f = Frame::beacon(ap(), Ssid::new("s"), Channel::CH1, 0);
        assert!(f.is_for(sta()));
        let g: Frame = Frame::auth_response(ap(), sta(), 0);
        assert!(g.is_for(sta()));
        assert!(!g.is_for(MacAddr::local(99)));
    }

    #[test]
    fn wildcard_ssid_roundtrip() {
        let req: Frame = Frame::probe_request(sta(), ap(), Ssid::wildcard());
        if let FrameBody::ProbeReq { ssid } = &roundtrip(&req).body {
            assert!(ssid.is_wildcard());
        } else {
            panic!("wrong body");
        }
    }

    #[test]
    fn wire_len_reasonable() {
        let beacon = Frame::beacon(ap(), Ssid::new("abcdefgh"), Channel::CH6, 0);
        // 24 hdr + 12 fixed + (2+8) ssid ie + 3 ds ie = 49
        assert_eq!(beacon.wire_len(), 49);
    }

    #[test]
    fn ssid_limits() {
        assert!(Ssid::from_bytes(&[0u8; 33]).is_err());
        assert!(Ssid::from_bytes(&[0u8; 32]).is_ok());
    }
}
