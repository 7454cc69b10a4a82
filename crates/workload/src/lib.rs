//! # workload
//!
//! Traffic for the Spider (CoNEXT 2011) reproduction:
//!
//! * [`shaper`] — the backhaul model: a bounded FIFO serializing link
//!   (the Fig. 9 apparatus).
//! * [`downloads`] — what the vehicle fetches: saturating bulk HTTP (the
//!   evaluation workload) or segmented streaming.
//! * [`mesh`] — the §4.7 usability baseline: synthetic per-user TCP
//!   connection-duration and inter-connection distributions standing in
//!   for the paper's (unavailable) 161-user mesh capture.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod downloads;
pub mod mesh;
pub mod shaper;

pub use downloads::DownloadPlan;
pub use mesh::{MeshWorkloadParams, UserFlow};
pub use shaper::SerialLink;
