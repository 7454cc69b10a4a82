//! # geo
//!
//! Spatial indexing for metro-scale worlds. Every structure here speaks
//! **dense slot indices** (the `MacIntern` pattern: entity `i` lives at
//! `Vec` position `i`), so the simulation's per-entity state stays in
//! slot-indexed vectors and a spatial query returns indices straight
//! into them.
//!
//! * [`GridIndex`] — a static grid/bucket index over an AP deployment
//!   (CSR buckets over sorted cell keys). Disc range queries return
//!   ascending slot indices and visit O(cells in the disc) buckets
//!   instead of O(APs).
//! * [`MoverIndex`] — cell-keyed membership for moving entities
//!   (clients), updated incrementally as they move: one remove + one
//!   insert per cell crossing, nothing when the mover stays in its cell.
//! * [`RankedSet`] — a dense-slot set iterated in a caller-supplied
//!   rank order. The simulation uses it for the "heard set": the APs
//!   with a live scan-table entry, walked in MacAddr order so candidate
//!   collection is O(heard) yet byte-identical to the old full scan.
//! * [`contention`](mod@contention) — per-spatial-cell channel contention
//!   over a deployment, the co-channel degree each AP sees inside its
//!   interference disc, cross-checked against the Panda & Kumar /
//!   Bianchi saturation model in `analytical::cell`.
//!
//! Everything is deterministic by construction: sorted keys, ascending
//! slot order, no hash maps (this crate is simlint **Sim** tier).

pub mod contention;
pub mod grid;
pub mod rank;

pub use contention::{contention, CellContention, ContentionSummary};
pub use grid::{cell_key, CellKey, GridIndex, MoverIndex};
pub use rank::RankedSet;
