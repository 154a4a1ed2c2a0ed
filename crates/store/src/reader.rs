//! The bounds-checked little-endian reader every decoder shares: the
//! `SWOP` snapshot, the partition sketch and the cluster frames. Each maps
//! a [`ReadError`] onto its own error type and wording.

/// Why a [`ByteReader`] refused to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// Fewer bytes remain than the field needs.
    Truncated,
    /// A string field is not UTF-8.
    NotUtf8,
    /// A list's count claims more elements than the remaining bytes hold.
    ListTooLong,
    /// A varint spends more bytes than its value needs.
    OverlongVarint,
    /// A varint's value does not fit a `u64`.
    VarintOverflow,
}

/// A cursor over a byte slice: every read checks its bytes are there
/// before it advances.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not read yet.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        if n > self.remaining() {
            return Err(ReadError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, ReadError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` byte length, then that many bytes of UTF-8.
    pub fn str(&mut self) -> Result<&'a str, ReadError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| ReadError::NotUtf8)
    }

    /// A `u32` count of elements of `elem_size` bytes each, refused when
    /// the remaining bytes could not hold them: a hostile count must not
    /// size an allocation.
    pub fn list_len(&mut self, elem_size: usize) -> Result<usize, ReadError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_size) > self.remaining() {
            return Err(ReadError::ListTooLong);
        }
        Ok(n)
    }

    /// One LEB128 `u64`, minimal length only: a padded encoding of the
    /// same value is refused, so each value has one byte string.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, ReadError> {
        // Nearly every value a frame carries fits one byte.
        match self.bytes.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(b as u64)
            }
            _ => self.long_varint(),
        }
    }

    #[cold]
    fn long_varint(&mut self) -> Result<u64, ReadError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                break;
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(ReadError::OverlongVarint);
                }
                return Ok(v);
            }
        }
        Err(ReadError::VarintOverflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_advance_and_stop_at_the_end() {
        let bytes = [1, 2, 0, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 9];
        let mut r = ByteReader::new(&bytes);
        assert_eq!((r.u8(), r.u16(), r.u32(), r.u64()), (Ok(1), Ok(2), Ok(3), Ok(4)));
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.u16(), Err(ReadError::Truncated));
        assert_eq!(r.take(1), Ok(&[9][..]));
        assert_eq!(r.take(1), Err(ReadError::Truncated));
    }

    #[test]
    fn strings_and_lists_check_their_lengths() {
        let mut r = ByteReader::new(&[2, 0, 0, 0, b'h', b'i', 3, 0, 0, 0, 0xFF]);
        assert_eq!(r.str(), Ok("hi"));
        assert_eq!(r.clone().str(), Err(ReadError::Truncated));
        assert_eq!(r.list_len(1), Err(ReadError::ListTooLong));
        assert_eq!(ByteReader::new(&[1, 0, 0, 0, 0xFF]).str(), Err(ReadError::NotUtf8));
        assert_eq!(ByteReader::new(&[1, 0, 0, 0, 7]).list_len(1), Ok(1));
    }

    #[test]
    fn varints_are_minimal_and_fit_u64() {
        let read = |bytes: &[u8]| ByteReader::new(bytes).varint();
        assert_eq!(read(&[0x7F]), Ok(127));
        assert_eq!(read(&[0x80, 0x01]), Ok(128));
        assert_eq!(read(&[0x80, 0x00]), Err(ReadError::OverlongVarint));
        assert_eq!(read(&[0xFF; 9].iter().chain(&[0x01]).copied().collect::<Vec<_>>()), Ok(!0));
        assert_eq!(
            read(&[0xFF; 9].iter().chain(&[0x02]).copied().collect::<Vec<_>>()),
            Err(ReadError::VarintOverflow)
        );
        assert_eq!(read(&[0x80]), Err(ReadError::Truncated));
    }
}
