//! # wifi-mac
//!
//! The 802.11 substrate of the Spider (CoNEXT 2011) reproduction: everything
//! between "a vehicle and some APs exist at certain distances" and "a DHCP
//! packet can be handed to the next layer".
//!
//! * [`addr`] — MAC addresses.
//! * [`channel`] — 2.4 GHz channels; orthogonality of 1/6/11.
//! * [`frame`] — the frame wire formats the join and data paths use,
//!   including the PSM machinery (null frames with the power-management
//!   bit, PS-Poll) that virtualized Wi-Fi is built on.
//! * [`phy`] — path loss, frame error rate, and airtime at 11 Mb/s.
//! * [`client`] — the station-side join state machine with configurable
//!   link-layer timeouts (the paper's 1 s default vs 100 ms reduced).
//! * [`ap`] — the AP-side machine: probes, open auth, association table,
//!   PSM buffering and release.
//! * [`radio`] — the one-channel-at-a-time physical card with Table 1's
//!   switch-latency cost model.
//! * [`rates`] — 802.11b multi-rate (1/2/5.5/11 Mb/s) and the ARF
//!   adaptation algorithm, as an opt-in extension beyond the paper's
//!   fixed-11 Mb/s assumption.
//!
//! All state machines are pure (frames in, actions out) — the event loop
//! that wires them to virtual time lives in `spider-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod ap;
pub mod channel;
pub mod client;
pub mod frame;
pub mod phy;
pub mod radio;
pub mod rates;

pub use addr::MacAddr;
pub use ap::{ApAction, ApConfig, ApMac};
pub use channel::{Channel, ORTHOGONAL};
pub use client::{Action, ClientMac, JoinConfig, JoinFailure, JoinPhase};
pub use frame::{Frame, FrameBody, FrameError, Ssid};
pub use phy::{LinkQuality, PhyConfig};
pub use radio::{Radio, RadioConfig};
pub use rates::{Arf, Rate, RatedPhy};
