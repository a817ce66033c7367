//! Shared binary reader/writer with optional CDR-style alignment.
//!
//! The byte-pushers are `#[inline]`: the generic `BinaryCodec` that drives
//! them is instantiated in whichever crate names it, and they must inline
//! there as they do here.

use crate::WireError;

/// A little-endian byte writer. When `align` is true, multi-byte primitives
/// are aligned to their natural boundary relative to the start of the
/// buffer, as in CORBA CDR.
///
/// Encoding is infallible byte-pushing except for one class of error:
/// u32 length prefixes whose value does not fit in a `u32` (a >4 GiB
/// string or element count). Such a write *poisons* the writer instead of
/// silently truncating the length on the wire; [`BinWriter::finish`]
/// surfaces the poison as a typed [`WireError`], so a corrupt frame is
/// never produced.
#[derive(Debug)]
pub struct BinWriter {
    buf: Vec<u8>,
    align: bool,
    poisoned: Option<WireError>,
}

impl BinWriter {
    /// A writer over a recycled buffer (cleared, capacity kept), CDR-aligned
    /// or packed. This is the per-link buffer-pool entry point: the backing
    /// allocation of a previous frame is reused instead of dropped.
    #[inline]
    pub fn reuse(mut buf: Vec<u8>, align: bool) -> Self {
        buf.clear();
        BinWriter {
            buf,
            align,
            poisoned: None,
        }
    }

    #[inline]
    fn pad_to(&mut self, n: usize) {
        if self.align {
            while !self.buf.len().is_multiple_of(n) {
                self.buf.push(0);
            }
        }
    }

    /// Write one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Write a little-endian `u16` (aligned in CDR mode).
    #[inline]
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.pad_to(2);
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a little-endian `u32` (aligned in CDR mode).
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.pad_to(4);
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a little-endian `u64` (aligned in CDR mode).
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.pad_to(8);
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a little-endian `i32`.
    pub fn i32(&mut self, v: i32) -> &mut Self {
        self.u32(v as u32)
    }

    /// Write a little-endian `i64`.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.u64(v as u64)
    }

    /// Write an `f32` as its IEEE-754 bits.
    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.u32(v.to_bits())
    }

    /// Write an `f64` as its IEEE-754 bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Write a `usize` as a u32 length prefix, checking the value fits.
    /// An oversized length (a >4 GiB string or element count) poisons the
    /// writer rather than truncating via `as u32` and emitting a frame whose
    /// prefix disagrees with its body.
    #[inline]
    pub fn len_u32(&mut self, n: usize) -> &mut Self {
        match u32::try_from(n) {
            Ok(v) => self.u32(v),
            Err(_) => {
                if self.poisoned.is_none() {
                    self.poisoned = Some(WireError::new(format!(
                        "length {n} does not fit in a u32 prefix"
                    )));
                }
                self
            }
        }
    }

    /// Length-prefixed UTF-8 string (u32 length).
    #[inline]
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.len_u32(s.len());
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Raw bytes, no length prefix.
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Finish and take the buffer, surfacing any length-prefix poison.
    #[inline]
    pub fn finish(self) -> Result<Vec<u8>, WireError> {
        match self.poisoned {
            None => Ok(self.buf),
            Some(e) => Err(e),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// The matching reader.
#[derive(Debug)]
pub struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
    align: bool,
}

impl<'a> BinReader<'a> {
    /// Read `buf` from byte offset `pos` (0 for a whole frame), CDR-aligned
    /// or packed. A later `pos` serves the lazy-payload path: a header scan
    /// records where the payload starts and materialisation picks up from
    /// there. Alignment stays relative to the buffer start (CDR semantics),
    /// which is why the full buffer is kept rather than a payload sub-slice.
    #[inline]
    pub fn resume(buf: &'a [u8], pos: usize, align: bool) -> Self {
        BinReader { buf, pos, align }
    }

    /// Current byte offset from the start of the buffer.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    #[inline]
    fn skip_pad(&mut self, n: usize) {
        if self.align {
            while !self.pos.is_multiple_of(n) {
                self.pos += 1;
            }
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::new(format!(
                "truncated: need {n} bytes at {}",
                self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16` (skipping CDR padding).
    #[inline]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.skip_pad(2);
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32` (skipping CDR padding).
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.skip_pad(4);
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64` (skipping CDR padding).
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.skip_pad(8);
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, WireError> {
        Ok(self.u32()? as i32)
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }

    /// Read an `f32` from its IEEE-754 bits.
    pub fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Read an `f64` from its IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a u32-length-prefixed UTF-8 string.
    #[inline]
    pub fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::new("invalid utf-8"))
    }

    /// Expect exact magic bytes.
    #[inline]
    pub fn expect(&mut self, magic: &[u8]) -> Result<(), WireError> {
        let got = self.take(magic.len())?;
        if got != magic {
            return Err(WireError::new(format!(
                "bad magic: expected {magic:?}, got {got:?}"
            )));
        }
        Ok(())
    }

    /// Whether all input was consumed (ignoring trailing alignment pad).
    /// The bounds check must come first: `skip_pad` can legally advance
    /// `pos` past the end of the buffer when a frame ends mid-pad, and
    /// slicing `buf[self.pos..]` with such a `pos` would panic.
    pub fn at_end(&self) -> bool {
        self.pos >= self.buf.len() || self.buf[self.pos..].iter().all(|&b| b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unaligned_roundtrip() {
        let mut w = BinWriter::reuse(Vec::new(), false);
        w.u8(7).u16(300).u32(70_000).u64(1 << 40).i32(-5).i64(-6);
        w.f32(1.5).f64(-2.25).string("héllo");
        let buf = w.finish().unwrap();
        let mut r = BinReader::resume(&buf, 0, false);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i32().unwrap(), -5);
        assert_eq!(r.i64().unwrap(), -6);
        assert_eq!(r.f32().unwrap(), 1.5);
        assert_eq!(r.f64().unwrap(), -2.25);
        assert_eq!(r.string().unwrap(), "héllo");
        assert!(r.at_end());
    }

    #[test]
    fn aligned_writer_pads_and_reader_skips() {
        let mut w = BinWriter::reuse(Vec::new(), true);
        w.u8(1).u32(2).u8(3).u64(4);
        let buf = w.finish().unwrap();
        // u8 at 0, pad to 4, u32 at 4..8, u8 at 8, pad to 16, u64 at 16..24
        assert_eq!(buf.len(), 24);
        let mut r = BinReader::resume(&buf, 0, true);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u32().unwrap(), 2);
        assert_eq!(r.u8().unwrap(), 3);
        assert_eq!(r.u64().unwrap(), 4);
    }

    #[test]
    fn truncated_input_errors() {
        let buf = vec![1, 2];
        let mut r = BinReader::resume(&buf, 0, false);
        assert!(r.u64().is_err());
    }

    #[test]
    fn bad_magic_detected() {
        let buf = b"GIOP".to_vec();
        let mut r = BinReader::resume(&buf, 0, false);
        assert!(r.expect(b"JRMI").is_err());
        let mut r2 = BinReader::resume(&buf, 0, false);
        assert!(r2.expect(b"GIOP").is_ok());
    }

    #[test]
    fn oversized_length_prefix_poisons_writer() {
        if usize::BITS <= 32 {
            return; // the overflow cannot be constructed on 32-bit targets
        }
        let mut w = BinWriter::reuse(Vec::new(), false);
        w.u8(1).len_u32((u32::MAX as usize) + 1).u8(2);
        let err = w.finish().unwrap_err();
        assert!(err.0.contains("does not fit"), "unexpected error: {err:?}");

        // An in-range length never poisons.
        let mut ok = BinWriter::reuse(Vec::new(), false);
        ok.len_u32(u32::MAX as usize);
        assert!(ok.finish().is_ok());
    }

    #[test]
    fn at_end_tolerates_pad_past_buffer_end() {
        // A CDR frame that ends mid-pad: u8 at 0, then the reader skips pad
        // for a u32 that never comes. `skip_pad` advances pos to 4 on a
        // 2-byte buffer; at_end must report true, not panic.
        let buf = vec![7, 0];
        let mut r = BinReader::resume(&buf, 0, true);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.u32().is_err());
        assert!(r.at_end());
    }

    #[test]
    fn reused_buffer_is_cleared_but_keeps_capacity() {
        let mut w = BinWriter::reuse(Vec::new(), false);
        w.string("first frame with some length");
        let buf = w.finish().unwrap();
        let cap = buf.capacity();
        let mut w2 = BinWriter::reuse(buf, false);
        w2.u8(9);
        let buf2 = w2.finish().unwrap();
        assert_eq!(buf2, vec![9]);
        assert!(buf2.capacity() >= cap.min(1));
    }
}
