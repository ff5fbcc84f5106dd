//! The journaled record: one batch of link-structure changes.
//!
//! [`DeltaRecord`] mirrors the serving layer's `EdgeDelta` (the WAL
//! cannot depend on `qrank-serve` — the dependency points the other
//! way), encoded little-endian with explicit counts so a decoder can
//! bound every allocation by the bytes actually present.

use bytes::{Buf, BufMut, BytesMut};

use crate::WalError;

/// A batch of link-structure changes observed at one instant, as stored
/// in the journal. Field-for-field the serving layer's `EdgeDelta`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaRecord {
    /// Observation time (non-decreasing across the log).
    pub time: f64,
    /// Pages created without links (isolated births).
    pub new_pages: Vec<u64>,
    /// Links that appeared, `(source page, target page)`.
    pub added: Vec<(u64, u64)>,
    /// Links that disappeared.
    pub removed: Vec<(u64, u64)>,
}

const RECORD_VERSION: u16 = 1;

/// Encode a record to its journal payload (framing and CRC are the
/// segment layer's job).
pub fn encode_delta(rec: &DeltaRecord) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(
        2 + 8 + 3 * 8 + rec.new_pages.len() * 8 + (rec.added.len() + rec.removed.len()) * 16,
    );
    buf.put_u16_le(RECORD_VERSION);
    buf.put_f64_le(rec.time);
    buf.put_u64_le(rec.new_pages.len() as u64);
    buf.put_u64_le(rec.added.len() as u64);
    buf.put_u64_le(rec.removed.len() as u64);
    for &p in &rec.new_pages {
        buf.put_u64_le(p);
    }
    for &(s, d) in &rec.added {
        buf.put_u64_le(s);
        buf.put_u64_le(d);
    }
    for &(s, d) in &rec.removed {
        buf.put_u64_le(s);
        buf.put_u64_le(d);
    }
    buf.to_vec()
}

fn need(buf: &[u8], n: u64, what: &str) -> Result<(), WalError> {
    if (buf.remaining() as u64) < n {
        Err(WalError::Decode(format!("truncated while reading {what}")))
    } else {
        Ok(())
    }
}

/// Decode a journal payload back into a [`DeltaRecord`].
///
/// Payloads reach this point CRC-verified, so a decode failure means a
/// version mismatch or a logic bug, not line noise — callers treat it as
/// hard corruption rather than a torn tail.
pub fn decode_delta(mut buf: &[u8]) -> Result<DeltaRecord, WalError> {
    need(buf, 2 + 8 + 24, "delta header")?;
    let version = buf.get_u16_le();
    if version != RECORD_VERSION {
        return Err(WalError::Decode(format!(
            "unsupported delta record version {version}"
        )));
    }
    let time = buf.get_f64_le();
    if time.is_nan() {
        return Err(WalError::Decode("delta time is NaN".into()));
    }
    let n_new = buf.get_u64_le();
    let n_added = buf.get_u64_le();
    let n_removed = buf.get_u64_le();
    let total_bytes = n_new
        .checked_mul(8)
        .and_then(|a| n_added.checked_mul(16).map(|b| (a, b)))
        .and_then(|(a, b)| n_removed.checked_mul(16).map(|c| (a, b, c)))
        .and_then(|(a, b, c)| a.checked_add(b).and_then(|ab| ab.checked_add(c)))
        .ok_or_else(|| WalError::Decode("delta element counts overflow".into()))?;
    need(buf, total_bytes, "delta elements")?;
    let mut new_pages = Vec::with_capacity(n_new as usize);
    for _ in 0..n_new {
        new_pages.push(buf.get_u64_le());
    }
    let mut added = Vec::with_capacity(n_added as usize);
    for _ in 0..n_added {
        added.push((buf.get_u64_le(), buf.get_u64_le()));
    }
    let mut removed = Vec::with_capacity(n_removed as usize);
    for _ in 0..n_removed {
        removed.push((buf.get_u64_le(), buf.get_u64_le()));
    }
    if buf.remaining() > 0 {
        return Err(WalError::Decode(format!(
            "{} trailing bytes after delta elements",
            buf.remaining()
        )));
    }
    Ok(DeltaRecord {
        time,
        new_pages,
        added,
        removed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeltaRecord {
        DeltaRecord {
            time: 4.5,
            new_pages: vec![7, u64::MAX],
            added: vec![(3, 7), (0, 1)],
            removed: vec![(2, 5)],
        }
    }

    #[test]
    fn roundtrip() {
        let rec = sample();
        assert_eq!(decode_delta(&encode_delta(&rec)).unwrap(), rec);
        let empty = DeltaRecord::default();
        assert_eq!(decode_delta(&encode_delta(&empty)).unwrap(), empty);
    }

    #[test]
    fn sample_encodes_to_pinned_v1_bytes() {
        // Every journal ever written holds records in exactly this
        // layout; a codec change that moves one byte fails here.
        #[rustfmt::skip]
        const PINNED: [u8; 98] = [
            0x01, 0x00, // version 1
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x12, 0x40, // time 4.5
            0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 2 new pages
            0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 2 added
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 1 removed
            0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // page 7
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // page u64::MAX
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // + 3 ->
            0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //     7
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // + 0 ->
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //     1
            0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // - 2 ->
            0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //     5
        ];
        assert_eq!(encode_delta(&sample()), PINNED);
        assert_eq!(decode_delta(&PINNED).unwrap(), sample());
    }

    #[test]
    fn rejects_the_retired_v2_slot_codec() {
        // v2 records carried per-shard slot arrays; nothing writes them
        // any more and a journal holding one is refused, not misread.
        let mut v2 = encode_delta(&sample());
        v2[..2].copy_from_slice(&2u16.to_le_bytes());
        match decode_delta(&v2) {
            Err(WalError::Decode(msg)) => {
                assert_eq!(msg, "unsupported delta record version 2")
            }
            other => panic!("v2 record decoded: {other:?}"),
        }
    }

    #[test]
    fn rejects_truncation_at_every_prefix() {
        let bytes = encode_delta(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_delta(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        assert!(decode_delta(&bytes).is_ok());
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_version() {
        let mut bytes = encode_delta(&sample());
        bytes.push(0);
        assert!(decode_delta(&bytes).is_err());
        let mut bad = encode_delta(&sample());
        bad[0] = 0xFF;
        assert!(decode_delta(&bad).is_err());
    }

    #[test]
    fn rejects_overflowing_counts() {
        let mut buf = BytesMut::new();
        buf.put_u16_le(RECORD_VERSION);
        buf.put_f64_le(0.0);
        buf.put_u64_le(u64::MAX); // new_pages count overflows when ×8
        buf.put_u64_le(0);
        buf.put_u64_le(0);
        assert!(decode_delta(&buf).is_err());
    }
}
