//! Zero-dependency wire buffers: the byte-slice codec substrate.
//!
//! Every protocol crate in the workspace (`wifi-mac`, `dhcp`, `tcp-lite`,
//! `spider-core`) encodes and decodes real byte layouts. This module gives
//! them the three pieces they need without an external buffer crate:
//!
//! * [`Bytes`] — an immutable, cheaply cloneable byte buffer
//!   (`Arc<[u8]>` under the hood). Frames and packets are cloned as they
//!   fan out through the simulated network, so clones must be O(1).
//! * [`Writer`] — an append-only encoder over a `Vec<u8>` with the
//!   integer puts listed below, that freezes into a [`Bytes`].
//! * [`Reader`] — a bounds-checked decode cursor over a byte slice. Every
//!   read returns `Result`, so truncated input surfaces as
//!   [`WireError::Truncated`] instead of a panic (the semantics the codecs
//!   previously borrowed from `bytes`' panicking getters).
//!
//! The integers are the ones the workspace's layouts use: u8, big-endian
//! u16, u32 and u64 (BOOTP/DHCP, TCP, the world and worker codecs), and
//! little-endian u16 and u64 (802.11 headers and beacon timestamps).

use core::fmt;
use core::ops::Deref;
use std::sync::Arc;

/// Decode-side failure: the buffer ended before the layout said it should.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// A read of `needed` bytes was attempted with only `remaining` left.
    Truncated {
        /// Bytes the read required.
        needed: usize,
        /// Bytes actually remaining in the cursor.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "wire buffer truncated: needed {needed} bytes, had {remaining}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// An immutable, cheaply cloneable byte buffer.
///
/// Equality, ordering and hashing follow the byte contents; cloning shares
/// the underlying allocation.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// The empty buffer.
    pub fn new() -> Bytes {
        Bytes(Arc::from(&[][..]))
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes(Arc::from(data))
    }

    /// Build from a static slice.
    ///
    /// (Copies once; the `'static` bound mirrors the upstream buffer
    /// crate's `from_static`, where the source is a literal.)
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// View as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes(Arc::from(v.into_boxed_slice()))
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({:02x?})", &self.0[..self.0.len().min(32)])?;
        if self.0.len() > 32 {
            write!(f, "… len={}", self.0.len())?;
        }
        Ok(())
    }
}

/// An append-only encoder that freezes into a [`Bytes`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A new empty writer.
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    /// A new writer with a capacity hint.
    pub fn with_capacity(cap: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a big-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a little-endian u16.
    pub fn put_u16_le(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a little-endian u64.
    pub fn put_u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes.
    pub fn put_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Finish encoding, producing an immutable buffer.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Finish encoding, producing the raw vector.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Reset to empty, keeping the allocation: the scratch-buffer mode.
    ///
    /// A long-lived `Writer` cleared between encodes amortizes its buffer
    /// across every frame on a hot path — `clear` + [`Writer::to_bytes`]
    /// performs exactly one allocation per encode (the shared `Bytes`),
    /// where `Writer::new` + [`Writer::freeze`] pays a growth
    /// reallocation on top.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The bytes written so far, as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Copy the current contents into an immutable buffer **without**
    /// consuming the writer; pair with [`Writer::clear`] to reuse the
    /// scratch allocation for the next encode.
    pub fn to_bytes(&self) -> Bytes {
        Bytes::copy_from_slice(&self.buf)
    }
}

/// A bounds-checked decode cursor over a byte slice.
///
/// Every getter returns `Err(WireError::Truncated)` rather than panicking
/// when the slice runs out, so `?` gives codecs clean truncated-input error
/// paths.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// True if fully consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Take the next `n` bytes as a slice.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.buf.len(),
            });
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Skip `n` bytes.
    pub fn advance(&mut self, n: usize) -> Result<(), WireError> {
        self.take(n).map(|_| ())
    }

    /// Consume and return everything left.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = self.buf;
        self.buf = &[];
        out
    }

    /// Copy the next `dst.len()` bytes into `dst`.
    pub fn read_exact(&mut self, dst: &mut [u8]) -> Result<(), WireError> {
        let src = self.take(dst.len())?;
        dst.copy_from_slice(src);
        Ok(())
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian u16.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Read a little-endian u16.
    pub fn get_u16_le(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a big-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a big-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian u64.
    pub fn get_u64_le(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip_all_widths() {
        let mut w = Writer::with_capacity(32);
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u16_le(0x1234);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0102_0304_0506_0708);
        w.put_u64_le(0x0102_0304_0506_0708);
        w.put_slice(b"xyz");
        let bytes = w.freeze();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8(), Ok(0xAB));
        assert_eq!(r.get_u16(), Ok(0x1234));
        assert_eq!(r.get_u16_le(), Ok(0x1234));
        assert_eq!(r.get_u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.get_u64(), Ok(0x0102_0304_0506_0708));
        assert_eq!(r.get_u64_le(), Ok(0x0102_0304_0506_0708));
        assert_eq!(r.take(3), Ok(&b"xyz"[..]));
        assert!(r.is_empty());
    }

    #[test]
    fn endianness_is_as_laid_out() {
        let mut w = Writer::new();
        w.put_u16(0x0102);
        w.put_u16_le(0x0102);
        w.put_u32(0x0A0B0C0D);
        assert_eq!(
            w.into_vec(),
            vec![0x01, 0x02, 0x02, 0x01, 0x0A, 0x0B, 0x0C, 0x0D]
        );
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let data = [1u8, 2, 3];
        let mut r = Reader::new(&data);
        assert_eq!(
            r.get_u32(),
            Err(WireError::Truncated {
                needed: 4,
                remaining: 3
            })
        );
        // The failed read consumed nothing.
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.get_u16(), Ok(0x0102));
        assert_eq!(
            r.get_u16(),
            Err(WireError::Truncated {
                needed: 2,
                remaining: 1
            })
        );
        assert_eq!(r.get_u8(), Ok(3));
        assert_eq!(
            r.get_u8(),
            Err(WireError::Truncated {
                needed: 1,
                remaining: 0
            })
        );
    }

    #[test]
    fn advance_and_rest() {
        let data = [9u8, 8, 7, 6];
        let mut r = Reader::new(&data);
        assert!(r.advance(2).is_ok());
        assert_eq!(r.rest(), &[7, 6]);
        assert!(r.is_empty());
        assert!(Reader::new(&data).advance(5).is_err());
    }

    #[test]
    fn read_exact_fills_buffer() {
        let mut r = Reader::new(&[1, 2, 3, 4]);
        let mut out = [0u8; 3];
        r.read_exact(&mut out).unwrap();
        assert_eq!(out, [1, 2, 3]);
        let mut too_big = [0u8; 2];
        assert!(r.read_exact(&mut too_big).is_err());
    }

    #[test]
    fn scratch_mode_reuses_allocation_across_encodes() {
        let mut w = Writer::with_capacity(64);
        w.put_slice(b"first frame");
        let first = w.to_bytes();
        assert_eq!(first.as_slice(), b"first frame");
        assert_eq!(w.as_slice(), b"first frame", "to_bytes must not consume");

        w.clear();
        assert!(w.is_empty());
        w.put_slice(b"second");
        assert_eq!(w.to_bytes().as_slice(), b"second");
        // The first snapshot is unaffected by the reuse.
        assert_eq!(first.as_slice(), b"first frame");
    }

    #[test]
    fn bytes_is_cheap_clone_and_content_equal() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a, Bytes::copy_from_slice(&[1, 2, 3]));
        assert_ne!(a, Bytes::from_static(b"abc"));
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Bytes::new().is_empty());
        assert_eq!(&a[..2], &[1, 2]);
        assert_eq!(a.to_vec(), vec![1, 2, 3]);
    }
}
