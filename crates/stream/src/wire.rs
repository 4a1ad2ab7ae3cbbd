//! The `sketchctl serve` wire protocol: length-prefixed binary frames over
//! a byte stream (std-only — no serde, no protocol crates).
//!
//! ## Frame layout
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! [ len: u32 LE ][ kind: u8 ][ body: len−1 bytes ]
//! ```
//!
//! `len` counts the kind byte plus the body, must be ≥ 1, and is capped at
//! [`MAX_FRAME`] (1 MiB): a peer announcing a larger frame is malformed and
//! the connection is closed without reading further. All integers are
//! little-endian; floats are IEEE-754 bit patterns (`f64::to_bits`), so
//! estimates survive the wire **bit-for-bit** — the loopback tests compare
//! served answers against direct [`QueryEngine`](crate::query::QueryEngine)
//! answers with `to_bits` equality.
//!
//! ## Message kinds
//!
//! Requests (client → server) mirror the engine's query surface:
//!
//! | kind | message | body |
//! |------|---------|------|
//! | 0x01 | [`Request::Point`] | `item: u64` |
//! | 0x02 | [`Request::PointBatch`] | `count: u32`, then `count × u64` |
//! | 0x03 | [`Request::Norm`] | — |
//! | 0x04 | [`Request::HeavyHitters`] | `threshold: f64` |
//! | 0x05 | [`Request::Report`] | — |
//! | 0x06 | [`Request::Shutdown`] | — |
//!
//! Responses (server → client) all carry the answering epoch's **stamp**
//! (the stream-prefix length, [`QueryView::stamp`]) so a client can tell
//! whether two answers describe the same prefix:
//!
//! | kind | message | body |
//! |------|---------|------|
//! | 0x81 | [`Response::Point`] | `stamp: u64`, `estimate: f64` |
//! | 0x82 | [`Response::Points`] | `stamp: u64`, `count: u32`, `count × f64` |
//! | 0x83 | [`Response::Norm`] | `stamp: u64`, `estimate: f64` |
//! | 0x84 | [`Response::HeavyHitters`] | `stamp: u64`, `count: u32`, `count × (item: u64, estimate: f64)` |
//! | 0x85 | [`Response::Report`] | [`WireReport`] fields in order |
//! | 0x86 | [`Response::ShutdownAck`] | — |
//! | 0xEE | [`Response::Error`] | `code: u8`, `len: u16`, `len` UTF-8 bytes |
//!
//! Decoding is strict: unknown kinds, short bodies, trailing bytes, and
//! unknown error codes are all [`WireError`]s, answered by closing the
//! connection (server) or surfacing the error (client) — never by a panic.
//!
//! [`QueryView::stamp`]: crate::query::QueryView::stamp

use crate::state::{StateError, StateReader};
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};

/// Hard cap on a frame's payload (kind + body), requests and responses
/// alike. Generous for every legitimate message (a 64k-item batch response
/// is ~512 KiB) while bounding what a malformed or hostile peer can make
/// the server allocate.
pub const MAX_FRAME: usize = 1 << 20;

/// A query request, one frame each. Kinds mirror the
/// [`QueryEngine`](crate::query::QueryEngine) surface.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Point estimate of one item.
    Point { item: u64 },
    /// Point estimates of a whole query set through one batched hash pass.
    PointBatch { items: Vec<u64> },
    /// The family's scalar norm statistic.
    Norm,
    /// Items whose estimate magnitude meets an absolute threshold.
    HeavyHitters { threshold: f64 },
    /// The serving epoch's accounting.
    Report,
    /// Ask the server to stop accepting and shut down (acknowledged with
    /// [`Response::ShutdownAck`]).
    Shutdown,
}

/// A query response, one frame each; every data-bearing kind is stamped
/// with the answering epoch's stream-prefix length.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Point`].
    Point { stamp: u64, estimate: f64 },
    /// Answer to [`Request::PointBatch`], positionally aligned with the
    /// requested items.
    Points { stamp: u64, estimates: Vec<f64> },
    /// Answer to [`Request::Norm`].
    Norm { stamp: u64, estimate: f64 },
    /// Answer to [`Request::HeavyHitters`], sorted by decreasing estimate
    /// magnitude (ties by item).
    HeavyHitters {
        stamp: u64,
        hitters: Vec<(u64, f64)>,
    },
    /// Answer to [`Request::Report`].
    Report(WireReport),
    /// The server accepted a [`Request::Shutdown`] and is stopping.
    ShutdownAck,
    /// The query could not be answered (the connection stays usable).
    Error { code: ErrorCode, message: String },
}

/// The serving epoch's accounting as it crosses the wire — the subset of
/// [`EpochReport`](crate::service::EpochReport) a remote client needs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireReport {
    /// 1-based epoch index of the serving snapshot.
    pub epoch: u64,
    /// Stream-prefix length the snapshot covers (the stamp every other
    /// response carries).
    pub total_updates: u64,
    /// Inserted mass `Σ Δ` over `Δ > 0` of the whole prefix.
    pub total_inserted: u64,
    /// Deleted mass `Σ |Δ|` over `Δ < 0` of the whole prefix.
    pub total_deleted: u64,
    /// Mass-accounting lower bound on the realized α₁ (may be `+∞` when
    /// deletions meet insertions).
    pub alpha_observed: f64,
    /// Space watermark of the serving snapshot, in bits.
    pub space_bits: u64,
    /// Worker count the snapshot was merged from.
    pub threads: u32,
    /// Updates shed by the `drop` overflow policy since the service started
    /// (0 under `block`).
    pub total_dropped_updates: u64,
    /// Mass `Σ|Δ|` of the shed updates since the service started.
    pub total_dropped_mass: u64,
    /// High-watermark of commands queued across all workers during the
    /// serving epoch (≤ depth × threads).
    pub queue_peak: u64,
    /// Producer microseconds spent blocked on full worker queues during the
    /// serving epoch.
    pub blocked_us: u64,
    /// Write-ahead-log records appended during the serving epoch (0 when
    /// the service runs with `wal=off` or no store).
    pub wal_records: u64,
    /// Write-ahead-log frame bytes appended during the serving epoch.
    pub wal_bytes: u64,
}

/// Why a query failed, as a wire-stable discriminant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// No epoch has been published yet (query again after the first cut).
    NoSnapshot = 1,
    /// The serving family does not answer this query kind.
    Unsupported = 2,
    /// Dense heavy-hitters scan refused: universe too large, no support
    /// view.
    UniverseTooLarge = 3,
    /// The request itself was invalid (e.g. an over-long batch).
    BadRequest = 4,
}

impl ErrorCode {
    fn from_u8(code: u8) -> Result<Self, WireError> {
        match code {
            1 => Ok(ErrorCode::NoSnapshot),
            2 => Ok(ErrorCode::Unsupported),
            3 => Ok(ErrorCode::UniverseTooLarge),
            4 => Ok(ErrorCode::BadRequest),
            other => Err(WireError::UnknownErrorCode(other)),
        }
    }
}

/// A malformed frame (strict decoding: any of these closes the peer).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before the kind's fixed or counted fields.
    Truncated,
    /// The body continued past the kind's last field.
    TrailingBytes(usize),
    /// The kind byte names no known message.
    UnknownKind(u8),
    /// An error response carried an unknown code.
    UnknownErrorCode(u8),
    /// An error message was not UTF-8.
    BadUtf8,
    /// A counted field would overrun [`MAX_FRAME`] (belt and braces — the
    /// frame reader already rejects oversized frames).
    Oversized(u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame body truncated"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame body"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02X}"),
            WireError::UnknownErrorCode(c) => write!(f, "unknown error code {c}"),
            WireError::BadUtf8 => write!(f, "error message is not UTF-8"),
            WireError::Oversized(n) => {
                write!(f, "counted field of {n} items exceeds the frame cap")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<StateError> for WireError {
    fn from(e: StateError) -> Self {
        match e {
            StateError::Truncated => WireError::Truncated,
            StateError::TrailingBytes(n) => WireError::TrailingBytes(n),
            StateError::Oversized(n) => WireError::Oversized(n),
            // The one validated field a frame carries is an error
            // message, checked for UTF-8.
            StateError::Corrupt(_) => WireError::BadUtf8,
        }
    }
}

impl Request {
    /// Encode into `buf` (cleared first) as a frame payload: kind byte +
    /// body, no length prefix ([`write_frame`] adds it).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.clear();
        match self {
            Request::Point { item } => {
                buf.push(0x01);
                buf.extend_from_slice(&item.to_le_bytes());
            }
            Request::PointBatch { items } => {
                buf.push(0x02);
                buf.extend_from_slice(&(items.len() as u32).to_le_bytes());
                for item in items {
                    buf.extend_from_slice(&item.to_le_bytes());
                }
            }
            Request::Norm => buf.push(0x03),
            Request::HeavyHitters { threshold } => {
                buf.push(0x04);
                buf.extend_from_slice(&threshold.to_bits().to_le_bytes());
            }
            Request::Report => buf.push(0x05),
            Request::Shutdown => buf.push(0x06),
        }
    }

    /// Strictly decode a frame payload (kind byte + body).
    pub fn decode(frame: &[u8]) -> Result<Request, WireError> {
        let mut r = StateReader::new(frame);
        let kind = r.u8()?;
        let req = match kind {
            0x01 => Request::Point { item: r.u64()? },
            0x02 => {
                let n = r.count(8, MAX_FRAME)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(r.u64()?);
                }
                Request::PointBatch { items }
            }
            0x03 => Request::Norm,
            0x04 => Request::HeavyHitters {
                threshold: r.f64()?,
            },
            0x05 => Request::Report,
            0x06 => Request::Shutdown,
            other => return Err(WireError::UnknownKind(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encode into `buf` (cleared first) as a frame payload: kind byte +
    /// body, no length prefix ([`write_frame`] adds it).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.clear();
        match self {
            Response::Point { stamp, estimate } => {
                buf.push(0x81);
                buf.extend_from_slice(&stamp.to_le_bytes());
                buf.extend_from_slice(&estimate.to_bits().to_le_bytes());
            }
            Response::Points { stamp, estimates } => {
                buf.push(0x82);
                buf.extend_from_slice(&stamp.to_le_bytes());
                buf.extend_from_slice(&(estimates.len() as u32).to_le_bytes());
                for e in estimates {
                    buf.extend_from_slice(&e.to_bits().to_le_bytes());
                }
            }
            Response::Norm { stamp, estimate } => {
                buf.push(0x83);
                buf.extend_from_slice(&stamp.to_le_bytes());
                buf.extend_from_slice(&estimate.to_bits().to_le_bytes());
            }
            Response::HeavyHitters { stamp, hitters } => {
                buf.push(0x84);
                buf.extend_from_slice(&stamp.to_le_bytes());
                buf.extend_from_slice(&(hitters.len() as u32).to_le_bytes());
                for (item, e) in hitters {
                    buf.extend_from_slice(&item.to_le_bytes());
                    buf.extend_from_slice(&e.to_bits().to_le_bytes());
                }
            }
            Response::Report(rep) => {
                buf.push(0x85);
                buf.extend_from_slice(&rep.epoch.to_le_bytes());
                buf.extend_from_slice(&rep.total_updates.to_le_bytes());
                buf.extend_from_slice(&rep.total_inserted.to_le_bytes());
                buf.extend_from_slice(&rep.total_deleted.to_le_bytes());
                buf.extend_from_slice(&rep.alpha_observed.to_bits().to_le_bytes());
                buf.extend_from_slice(&rep.space_bits.to_le_bytes());
                buf.extend_from_slice(&rep.threads.to_le_bytes());
                buf.extend_from_slice(&rep.total_dropped_updates.to_le_bytes());
                buf.extend_from_slice(&rep.total_dropped_mass.to_le_bytes());
                buf.extend_from_slice(&rep.queue_peak.to_le_bytes());
                buf.extend_from_slice(&rep.blocked_us.to_le_bytes());
                buf.extend_from_slice(&rep.wal_records.to_le_bytes());
                buf.extend_from_slice(&rep.wal_bytes.to_le_bytes());
            }
            Response::ShutdownAck => buf.push(0x86),
            Response::Error { code, message } => {
                buf.push(0xEE);
                buf.push(*code as u8);
                // Cut an over-long message at a char boundary, so the
                // frame still decodes as UTF-8.
                let mut len = message.len().min(u16::MAX as usize);
                while !message.is_char_boundary(len) {
                    len -= 1;
                }
                buf.extend_from_slice(&(len as u16).to_le_bytes());
                buf.extend_from_slice(&message.as_bytes()[..len]);
            }
        }
    }

    /// Strictly decode a frame payload (kind byte + body).
    pub fn decode(frame: &[u8]) -> Result<Response, WireError> {
        let mut r = StateReader::new(frame);
        let kind = r.u8()?;
        let resp = match kind {
            0x81 => Response::Point {
                stamp: r.u64()?,
                estimate: r.f64()?,
            },
            0x82 => {
                let stamp = r.u64()?;
                let n = r.count(8, MAX_FRAME)?;
                let mut estimates = Vec::with_capacity(n);
                for _ in 0..n {
                    estimates.push(r.f64()?);
                }
                Response::Points { stamp, estimates }
            }
            0x83 => Response::Norm {
                stamp: r.u64()?,
                estimate: r.f64()?,
            },
            0x84 => {
                let stamp = r.u64()?;
                let n = r.count(16, MAX_FRAME)?;
                let mut hitters = Vec::with_capacity(n);
                for _ in 0..n {
                    hitters.push((r.u64()?, r.f64()?));
                }
                Response::HeavyHitters { stamp, hitters }
            }
            0x85 => Response::Report(WireReport {
                epoch: r.u64()?,
                total_updates: r.u64()?,
                total_inserted: r.u64()?,
                total_deleted: r.u64()?,
                alpha_observed: r.f64()?,
                space_bits: r.u64()?,
                threads: r.u32()?,
                total_dropped_updates: r.u64()?,
                total_dropped_mass: r.u64()?,
                queue_peak: r.u64()?,
                blocked_us: r.u64()?,
                wal_records: r.u64()?,
                wal_bytes: r.u64()?,
            }),
            0x86 => Response::ShutdownAck,
            0xEE => {
                let code = ErrorCode::from_u8(r.u8()?)?;
                let message = r.str()?;
                Response::Error { code, message }
            }
            other => return Err(WireError::UnknownKind(other)),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Write one frame: `u32` LE length prefix, then the payload. Rejects
/// empty and over-[`MAX_FRAME`] payloads with `InvalidInput` (a server bug,
/// not a peer's).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.is_empty() || payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {} bytes out of range", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Idle read ticks a peer may sit mid-frame after the stop flag rises
/// before [`read_frame`] gives up on it (~1 s at the server's 50 ms read
/// timeout).
const DRAIN_TICKS: u32 = 20;

/// Read one frame's payload into `buf` (cleared and resized). Returns
/// `Ok(false)` on clean EOF at a frame boundary (the peer closed between
/// messages) or when `stop` is up between frames. A read timeout is a
/// polling tick: between frames it rechecks `stop`; mid-frame, the peer
/// gets [`DRAIN_TICKS`] ticks after `stop` rises before the read fails
/// with `TimedOut`. A length prefix of zero or above [`MAX_FRAME`] is
/// `InvalidData` (malformed peer — close the connection); EOF mid-frame is
/// `UnexpectedEof`.
pub fn read_frame<R: Read>(r: &mut R, buf: &mut Vec<u8>, stop: &AtomicBool) -> io::Result<bool> {
    let mut idle = 0;
    let mut len = [0u8; 4];
    if !fill(r, &mut len, stop, &mut idle, true)? {
        return Ok(false);
    }
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} out of range (cap {MAX_FRAME})"),
        ));
    }
    buf.clear();
    buf.resize(len, 0);
    fill(r, buf, stop, &mut idle, false)?;
    Ok(true)
}

/// Fill `out` for [`read_frame`]. With `at_boundary`, a close or a raised
/// `stop` before the first byte is `Ok(false)`; past it, a close is
/// `UnexpectedEof`.
fn fill<R: Read>(
    r: &mut R,
    out: &mut [u8],
    stop: &AtomicBool,
    idle: &mut u32,
    at_boundary: bool,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < out.len() {
        let between_frames = at_boundary && filled == 0;
        if between_frames && stop.load(SeqCst) {
            return Ok(false);
        }
        match r.read(&mut out[filled..]) {
            Ok(0) if between_frames => return Ok(false),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if stop.load(SeqCst) {
                    *idle += 1;
                    if *idle > DRAIN_TICKS {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_roundtrip(req: Request) {
        let mut buf = Vec::new();
        req.encode(&mut buf);
        assert_eq!(Request::decode(&buf), Ok(req));
    }

    fn response_roundtrip(resp: Response) {
        let mut buf = Vec::new();
        resp.encode(&mut buf);
        assert_eq!(Response::decode(&buf), Ok(resp));
    }

    #[test]
    fn every_request_kind_roundtrips() {
        request_roundtrip(Request::Point { item: u64::MAX });
        request_roundtrip(Request::PointBatch { items: vec![] });
        request_roundtrip(Request::PointBatch {
            items: vec![0, 1, 7, u64::MAX],
        });
        request_roundtrip(Request::Norm);
        request_roundtrip(Request::HeavyHitters { threshold: 0.125 });
        request_roundtrip(Request::Report);
        request_roundtrip(Request::Shutdown);
    }

    #[test]
    fn every_response_kind_roundtrips() {
        response_roundtrip(Response::Point {
            stamp: 42,
            estimate: -3.5,
        });
        response_roundtrip(Response::Points {
            stamp: 42,
            estimates: vec![0.0, -0.0, f64::INFINITY, 1e-300],
        });
        response_roundtrip(Response::Norm {
            stamp: 7,
            estimate: 123.456,
        });
        response_roundtrip(Response::HeavyHitters {
            stamp: 9,
            hitters: vec![(3, 40.0), (9, -50.0)],
        });
        response_roundtrip(Response::Report(WireReport {
            epoch: 3,
            total_updates: 300_000,
            total_inserted: 123,
            total_deleted: 45,
            alpha_observed: f64::INFINITY,
            space_bits: 1 << 20,
            threads: 4,
            total_dropped_updates: 512,
            total_dropped_mass: 1024,
            queue_peak: 256,
            blocked_us: 17,
            wal_records: 73,
            wal_bytes: 9001,
        }));
        response_roundtrip(Response::ShutdownAck);
        response_roundtrip(Response::Error {
            code: ErrorCode::Unsupported,
            message: "no norm view".into(),
        });
        // An over-long message is cut to the last char boundary within
        // the u16 length, so it still decodes.
        let long = "é".repeat(40_000);
        let mut buf = Vec::new();
        Response::Error {
            code: ErrorCode::BadRequest,
            message: long.clone(),
        }
        .encode(&mut buf);
        response_roundtrip(Response::decode(&buf).unwrap());
        match Response::decode(&buf).unwrap() {
            Response::Error { message, .. } => {
                assert_eq!(message.len(), u16::MAX as usize - 1);
                assert!(long.starts_with(&message));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn floats_cross_the_wire_bit_for_bit() {
        // A NaN with a distinctive payload must survive exactly.
        let weird = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let mut buf = Vec::new();
        Response::Point {
            stamp: 1,
            estimate: weird,
        }
        .encode(&mut buf);
        match Response::decode(&buf).unwrap() {
            Response::Point { estimate, .. } => {
                assert_eq!(estimate.to_bits(), weird.to_bits());
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn truncated_and_trailing_bodies_are_rejected() {
        let mut buf = Vec::new();
        Request::Point { item: 5 }.encode(&mut buf);
        assert_eq!(
            Request::decode(&buf[..buf.len() - 1]),
            Err(WireError::Truncated)
        );
        buf.push(0xAB);
        assert_eq!(Request::decode(&buf), Err(WireError::TrailingBytes(1)));
        assert_eq!(Request::decode(&[]), Err(WireError::Truncated));
        // A batch whose count promises more items than the body carries.
        let mut lying = vec![0x02];
        lying.extend_from_slice(&100u32.to_le_bytes());
        lying.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(Request::decode(&lying), Err(WireError::Truncated));
    }

    #[test]
    fn unknown_kinds_and_codes_are_rejected() {
        assert_eq!(Request::decode(&[0x7F]), Err(WireError::UnknownKind(0x7F)));
        assert_eq!(
            Response::decode(&[0x01]),
            Err(WireError::UnknownKind(0x01)),
            "request kinds are not response kinds"
        );
        let mut bad_code = vec![0xEE, 99];
        bad_code.extend_from_slice(&0u16.to_le_bytes());
        assert_eq!(
            Response::decode(&bad_code),
            Err(WireError::UnknownErrorCode(99))
        );
        let mut bad_utf8 = vec![0xEE, 1];
        bad_utf8.extend_from_slice(&2u16.to_le_bytes());
        bad_utf8.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(Response::decode(&bad_utf8), Err(WireError::BadUtf8));
    }

    #[test]
    fn counted_fields_cannot_demand_more_than_the_cap() {
        let mut huge = vec![0x02];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Request::decode(&huge),
            Err(WireError::Oversized(u32::MAX as u64))
        );
    }

    #[test]
    fn frames_roundtrip_over_a_byte_stream() {
        let mut wire = Vec::new();
        let mut payload = Vec::new();
        Request::Norm.encode(&mut payload);
        write_frame(&mut wire, &payload).unwrap();
        Request::Point { item: 3 }.encode(&mut payload);
        write_frame(&mut wire, &payload).unwrap();

        let mut r = &wire[..];
        let mut buf = Vec::new();
        let stop = AtomicBool::new(false);
        assert!(read_frame(&mut r, &mut buf, &stop).unwrap());
        assert_eq!(Request::decode(&buf), Ok(Request::Norm));
        assert!(read_frame(&mut r, &mut buf, &stop).unwrap());
        assert_eq!(Request::decode(&buf), Ok(Request::Point { item: 3 }));
        // Clean EOF at the frame boundary.
        assert!(!read_frame(&mut r, &mut buf, &stop).unwrap());
    }

    #[test]
    fn oversized_and_zero_length_prefixes_are_io_errors() {
        let mut buf = Vec::new();
        let stop = AtomicBool::new(false);
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert_eq!(
            read_frame(&mut &huge[..], &mut buf, &stop)
                .unwrap_err()
                .kind(),
            io::ErrorKind::InvalidData
        );
        let zero = 0u32.to_le_bytes();
        assert_eq!(
            read_frame(&mut &zero[..], &mut buf, &stop)
                .unwrap_err()
                .kind(),
            io::ErrorKind::InvalidData
        );
        // EOF mid-prefix and mid-body.
        let partial = [0x01u8, 0x00];
        assert_eq!(
            read_frame(&mut &partial[..], &mut buf, &stop)
                .unwrap_err()
                .kind(),
            io::ErrorKind::UnexpectedEof
        );
        let mut short = 8u32.to_le_bytes().to_vec();
        short.push(0x03);
        assert_eq!(
            read_frame(&mut &short[..], &mut buf, &stop)
                .unwrap_err()
                .kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Writing an oversized payload is refused before any bytes move.
        let mut sink = Vec::new();
        assert_eq!(
            write_frame(&mut sink, &vec![0u8; MAX_FRAME + 1])
                .unwrap_err()
                .kind(),
            io::ErrorKind::InvalidInput
        );
        assert!(sink.is_empty());
    }
}
