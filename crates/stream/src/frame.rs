//! The one byte framing every durable file uses, and its one checksum.
//!
//! * **Sealed envelope** — `magic: [u8; 4] | version: u16 | len: u32 |
//!   body | crc: u32`, the CRC-32C covering everything before it. The
//!   sketch blob (`BDSK`), the snapshot file (`BDSN`) and the WAL segment
//!   header (`BDWL`) are each one envelope; [`unseal`] hands back the body
//!   and whatever follows the envelope (a WAL segment's record stream).
//! * **Record frame** — `len: u32 | body | crc: u32`, the CRC-32C covering
//!   the body only: one per WAL record.
//!
//! All integers are little-endian. Both readers check every length
//! against a caller-supplied cap before trusting it, so a corrupt header
//! can never demand an absurd allocation, and both are total: a short,
//! oversized or bit-flipped input is a typed error, never a panic.

use crate::persist::PersistError;
use crate::state::StateError;
use crate::wal::WalDamage;

/// Bytes before an envelope's body: magic, version, length.
const SEAL_HEAD: usize = 4 + 2 + 4;

/// Wrap `body` in a sealed envelope. A body over `cap` bytes — one
/// [`unseal`] would reject — is refused with [`PersistError::Oversized`].
pub fn seal(
    magic: [u8; 4],
    version: u16,
    body: &[u8],
    cap: usize,
) -> Result<Vec<u8>, PersistError> {
    if body.len() > cap {
        return Err(PersistError::Oversized(body.len() as u64));
    }
    let mut out = Vec::with_capacity(SEAL_HEAD + body.len() + 4);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    let crc = crc32c(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Open the sealed envelope at the front of `bytes`, returning its body
/// and the bytes after it. Checks, in order: magic ([`PersistError::BadMagic`]),
/// version ([`PersistError::UnsupportedVersion`]), the length against
/// `cap` ([`PersistError::Oversized`]), that the buffer holds the whole
/// envelope (`State(Truncated)`), and the checksum
/// ([`PersistError::ChecksumMismatch`]).
pub fn unseal(
    bytes: &[u8],
    magic: [u8; 4],
    version: u16,
    cap: usize,
) -> Result<(&[u8], &[u8]), PersistError> {
    if bytes.get(..4) != Some(&magic[..]) {
        return Err(PersistError::BadMagic);
    }
    let found = u16::from_le_bytes(array_at(bytes, 4).ok_or(StateError::Truncated)?);
    if found != version {
        return Err(PersistError::UnsupportedVersion(found));
    }
    let len = u32::from_le_bytes(array_at(bytes, 6).ok_or(StateError::Truncated)?) as usize;
    if len > cap {
        return Err(PersistError::Oversized(len as u64));
    }
    let end = SEAL_HEAD + len;
    let stored = u32::from_le_bytes(array_at(bytes, end).ok_or(StateError::Truncated)?);
    if crc32c(&bytes[..end]) != stored {
        return Err(PersistError::ChecksumMismatch);
    }
    Ok((&bytes[SEAL_HEAD..end], &bytes[end + 4..]))
}

/// The `N` bytes at `at`, if the buffer holds them.
fn array_at<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    bytes.get(at..at + N)?.try_into().ok()
}

/// Append one record frame to `out`, its body being whatever `write_body`
/// appends. A body over `cap` bytes — one [`read_record`] would reject —
/// is refused with [`PersistError::Oversized`] and `out` is left as it
/// was.
pub fn write_record(
    out: &mut Vec<u8>,
    cap: usize,
    write_body: impl FnOnce(&mut Vec<u8>),
) -> Result<(), PersistError> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    write_body(out);
    let len = out.len() - start - 4;
    debug_assert!(len > 0, "record bodies are never empty");
    if len > cap {
        out.truncate(start);
        return Err(PersistError::Oversized(len as u64));
    }
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32c(&out[start + 4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Read the record frame at the front of `bytes`, returning its body and
/// the bytes after it. A frame cut short is [`WalDamage::TornFrame`], a
/// length of zero or over `cap` is [`WalDamage::BadLength`], and a body
/// whose CRC-32C differs from the stored one is [`WalDamage::Checksum`].
pub fn read_record(bytes: &[u8], cap: usize) -> Result<(&[u8], &[u8]), WalDamage> {
    let len = u32::from_le_bytes(array_at(bytes, 0).ok_or(WalDamage::TornFrame)?) as usize;
    if len == 0 || len > cap {
        return Err(WalDamage::BadLength);
    }
    let stored = u32::from_le_bytes(array_at(bytes, 4 + len).ok_or(WalDamage::TornFrame)?);
    let body = &bytes[4..4 + len];
    if crc32c(body) != stored {
        return Err(WalDamage::Checksum);
    }
    Ok((body, &bytes[8 + len..]))
}

/// Slicing-by-8 lookup tables for CRC-32C (Castagnoli, reflected
/// polynomial `0x82F63B78`), built at compile time. `T[0]` is the classic
/// byte-at-a-time table; `T[j]` advances a byte through `j` further zero
/// bytes, letting the loop fold eight input bytes per iteration.
const CRC32C_TABLE: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0x82F6_3B78 & mask);
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
};

/// CRC-32C (Castagnoli), the checksum of every envelope and record frame.
/// The log checksums every dispatched cell on the ingest hot path, so the
/// polynomial is the one the x86 `crc32` instruction (SSE4.2) computes,
/// ~5× the table loop; elsewhere it falls back to slicing-by-8 tables.
pub fn crc32c(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: guarded by the sse4.2 runtime check.
        #[allow(unsafe_code)]
        return unsafe { crc32c_sse42(bytes) };
    }
    crc32c_sw(bytes)
}

/// CRC-32C on the SSE4.2 `crc32` instruction.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
#[allow(unsafe_code)]
unsafe fn crc32c_sse42(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = !0u32 as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(c.try_into().unwrap()));
    }
    let mut crc = crc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

fn crc32c_sw(bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLE;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_known_vector_and_fallback_equivalence() {
        // The canonical check value for CRC-32C/Castagnoli.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // The dispatched (possibly hardware) path must agree with the
        // table fallback on every length mod 8 and on longer runs.
        let data: Vec<u8> = (0..1021u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 1021] {
            assert_eq!(crc32c(&data[..len]), crc32c_sw(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn envelope_checks_run_in_order() {
        let sealed = seal(*b"TEST", 3, b"payload", 64).unwrap();
        assert_eq!(
            seal(*b"TEST", 3, b"payload", 6),
            Err(PersistError::Oversized(7))
        );
        let mut stream = sealed.clone();
        stream.extend_from_slice(b"rest");
        assert_eq!(
            unseal(&stream, *b"TEST", 3, 64),
            Ok((&b"payload"[..], &b"rest"[..]))
        );
        assert_eq!(
            unseal(&sealed, *b"NOPE", 3, 64),
            Err(PersistError::BadMagic)
        );
        assert_eq!(
            unseal(&sealed, *b"TEST", 4, 64),
            Err(PersistError::UnsupportedVersion(3))
        );
        assert_eq!(
            unseal(&sealed, *b"TEST", 3, 6),
            Err(PersistError::Oversized(7))
        );
        let truncated = PersistError::State(StateError::Truncated);
        for cut in [4, 5, 9, sealed.len() - 1] {
            assert_eq!(
                unseal(&sealed[..cut], *b"TEST", 3, 64),
                Err(truncated.clone())
            );
        }
        let mut flipped = sealed.clone();
        flipped[12] ^= 1;
        assert_eq!(
            unseal(&flipped, *b"TEST", 3, 64),
            Err(PersistError::ChecksumMismatch)
        );
    }

    #[test]
    fn record_frames_roundtrip_and_refuse_over_cap_bodies() {
        let mut out = b"prefix".to_vec();
        write_record(&mut out, 8, |b| b.extend_from_slice(b"body")).unwrap();
        assert_eq!(
            write_record(&mut out, 8, |b| b.extend_from_slice(b"too long!")),
            Err(PersistError::Oversized(9))
        );
        assert_eq!(out.len(), 6 + 4 + 4 + 4, "a refused body leaves no bytes");
        assert_eq!(read_record(&out[6..], 8), Ok((&b"body"[..], &[][..])));
        assert_eq!(read_record(&out[6..], 3), Err(WalDamage::BadLength));
        assert_eq!(
            read_record(&out[6..out.len() - 1], 8),
            Err(WalDamage::TornFrame)
        );
        out[12] ^= 1;
        assert_eq!(read_record(&out[6..], 8), Err(WalDamage::Checksum));
    }
}
