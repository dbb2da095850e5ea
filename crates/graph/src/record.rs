//! The one CRC-32 and the one checksummed-record codec behind every
//! CRC-checked format in the workspace. Two layouts (LE) are parsed here
//! and nowhere else:
//!
//! ```text
//! record:  len u32 | crc32 u32 | payload[len]   WAL batches; serve frames after the magic
//! sealed:  body | crc32 u32                     phase checkpoints; serve cache `meta`
//! ```
//!
//! Decoding is total: a damaged record is a typed [`RecordError`] (which
//! callers map onto `WalError` / `ProtocolError`), a damaged sealed body
//! unseals to `None`, and a length prefix is checked against a cap and
//! the bytes present before the payload is touched.

use std::io;
use std::path::{Path, PathBuf};

/// Bytes of a record header (`len | crc32`).
pub const RECORD_HEADER_BYTES: usize = 8;
/// Bytes of a sealed body's CRC trailer.
pub const TRAILER_BYTES: usize = 4;

/// Lookup table for the reflected IEEE polynomial, one entry per byte.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected; the gzip/zip checksum), one table
/// lookup per byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |crc, &b| {
        CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8)
    })
}

/// Every way a record can fail to decode (lengths relative to the slice
/// decoded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The bytes end inside the header or the payload.
    Truncated {
        /// Bytes the record needs.
        needed: usize,
        /// Bytes present.
        available: usize,
    },
    /// The length prefix exceeds the caller's cap; reported before any
    /// payload is touched or allocated.
    Oversize {
        /// Length the prefix claimed.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// The payload does not hash to the stored CRC.
    CrcMismatch {
        /// CRC stored in the header.
        stored: u32,
        /// CRC of the payload present.
        actual: u32,
    },
}

/// A parsed record header, for stream readers that size the payload
/// buffer from a validated length before reading the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// Payload byte count.
    pub len: u32,
    /// CRC-32 the payload must hash to.
    pub crc: u32,
}

impl RecordHeader {
    /// Parses the header at the front of `bytes`, rejecting a length over
    /// `max_len`.
    pub fn parse(bytes: &[u8], max_len: u32) -> Result<RecordHeader, RecordError> {
        let Some(header) = bytes.get(..RECORD_HEADER_BYTES) else {
            let available = bytes.len();
            return Err(RecordError::Truncated { needed: RECORD_HEADER_BYTES, available });
        };
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        if len > max_len {
            return Err(RecordError::Oversize { len, max: max_len });
        }
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        Ok(RecordHeader { len, crc })
    }

    /// Checks `payload` against the stored CRC.
    pub fn verify(&self, payload: &[u8]) -> Result<(), RecordError> {
        let actual = crc32(payload);
        if actual != self.crc {
            return Err(RecordError::CrcMismatch { stored: self.crc, actual });
        }
        Ok(())
    }
}

/// Appends `payload` to `out` as one record (panics past `u32::MAX` bytes).
pub fn put_record(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("record payload exceeds u32::MAX bytes");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decodes the record at the front of `bytes`, returning its payload and
/// the total bytes it occupies. Checks run in order: header present,
/// length within `max_len`, payload present, CRC.
pub fn take_record(bytes: &[u8], max_len: u32) -> Result<(&[u8], usize), RecordError> {
    let header = RecordHeader::parse(bytes, max_len)?;
    let total = RECORD_HEADER_BYTES.saturating_add(header.len as usize);
    let Some(payload) = bytes.get(RECORD_HEADER_BYTES..total) else {
        return Err(RecordError::Truncated { needed: total, available: bytes.len() });
    };
    header.verify(payload)?;
    Ok((payload, total))
}

/// `body` followed by its CRC trailer.
pub fn seal(body: &[u8]) -> Vec<u8> {
    [body, &crc32(body).to_le_bytes()].concat()
}

/// The body of a sealed byte string, or `None` when it is too short to
/// hold a trailer or the trailer does not match.
pub fn unseal(bytes: &[u8]) -> Option<&[u8]> {
    let split = bytes.len().checked_sub(TRAILER_BYTES)?;
    let (body, trailer) = bytes.split_at(split);
    (crc32(body) == u32::from_le_bytes(trailer.try_into().ok()?)).then_some(body)
}

/// Where [`write_atomic`] stages `path`: the same name with `.tmp` added.
pub fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Replaces `path` with `bytes` via [`temp_path`] and a rename, so readers
/// see the old file or the new one, never a torn mix.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_path(path);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn temp_path_appends_to_the_file_name() {
        assert_eq!(temp_path(Path::new("d/host-1.ckpt")), PathBuf::from("d/host-1.ckpt.tmp"));
        assert_eq!(temp_path(Path::new("d/meta")), PathBuf::from("d/meta.tmp"));
    }
}
