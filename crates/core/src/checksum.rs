//! CRC32C checksums and torn-write-safe record framing.
//!
//! The crash-safety layer ([`crate::durable`]) persists state as
//! self-validating records. Each record is framed as
//!
//! ```text
//! [magic: u32 LE] [len: u32 LE] [len ^ LEN_GUARD: u32 LE] [crc32c(payload): u32 LE] [payload]
//! ```
//!
//! The duplicated, guard-XORed length lets a reader tell a record whose
//! extent is known but whose payload is damaged from a header that cannot
//! be trusted at all — see [`DecodeStep`].
//!
//! CRC32C (Castagnoli) is used over plain CRC32 for its better error
//! detection on short records; the implementation is a table-driven
//! software loop, deliberately dependency-free.

/// Framing magic: `"TSTE"` little-endian.
pub const RECORD_MAGIC: u32 = 0x4554_5354;

/// XOR guard for the duplicated length field.
const LEN_GUARD: u32 = 0x5A5A_5A5A;

/// Bytes of framing before each payload.
pub const RECORD_HEADER_LEN: usize = 16;

/// Upper bound on a single record's payload; a header whose validated
/// length exceeds this is treated as torn rather than allocated.
pub const MAX_RECORD_LEN: usize = 1 << 30;

const fn build_table() -> [u32; 256] {
    // Reflected Castagnoli polynomial.
    let poly = 0x82F6_3B78u32;
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ poly } else { crc >> 1 };
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = build_table();

/// CRC32C (Castagnoli) of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Frames one payload into a self-validating record.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let len = payload.len() as u32;
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&(len ^ LEN_GUARD).to_le_bytes());
    out.extend_from_slice(&crc32c(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Outcome of decoding one record from the front of a byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeStep<'a> {
    /// A whole, checksum-valid record of `consumed` total bytes.
    Record {
        /// The validated payload.
        payload: &'a [u8],
        /// Total bytes consumed including framing.
        consumed: usize,
    },
    /// The header validates but the payload fails its CRC: skip
    /// `consumed` bytes and quarantine the record.
    CorruptPayload {
        /// Total bytes occupied by the corrupt record.
        consumed: usize,
    },
    /// Not a decodable record: a mid-write crash, or a damaged header whose
    /// length cannot be trusted. Truncate from this offset, or resume at the
    /// next offset where a whole record starts.
    TornTail,
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

/// Decodes the record at the front of `buf`.
pub fn decode_record(buf: &[u8]) -> DecodeStep<'_> {
    if buf.len() < RECORD_HEADER_LEN {
        return DecodeStep::TornTail;
    }
    let magic = read_u32(buf, 0);
    let len = read_u32(buf, 4);
    let len_check = read_u32(buf, 8);
    let crc = read_u32(buf, 12);
    if magic != RECORD_MAGIC || len ^ LEN_GUARD != len_check || len as usize > MAX_RECORD_LEN {
        return DecodeStep::TornTail;
    }
    let total = RECORD_HEADER_LEN + len as usize;
    if buf.len() < total {
        return DecodeStep::TornTail;
    }
    let payload = &buf[RECORD_HEADER_LEN..total];
    if crc32c(payload) != crc {
        return DecodeStep::CorruptPayload { consumed: total };
    }
    DecodeStep::Record { payload, consumed: total }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_matches_reference_vectors() {
        // The canonical check value for CRC32C.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // 32 zero bytes, RFC 3720 test vector.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // 32 0xFF bytes, RFC 3720 test vector.
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn roundtrip_single_record() {
        let rec = encode_record(b"hello journal");
        match decode_record(&rec) {
            DecodeStep::Record { payload, consumed } => {
                assert_eq!(payload, b"hello journal");
                assert_eq!(consumed, rec.len());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let rec = encode_record(b"");
        assert_eq!(
            decode_record(&rec),
            DecodeStep::Record { payload: b"", consumed: RECORD_HEADER_LEN }
        );
    }

    #[test]
    fn truncation_anywhere_is_a_torn_tail() {
        let rec = encode_record(b"some payload bytes");
        for cut in 0..rec.len() {
            assert_eq!(decode_record(&rec[..cut]), DecodeStep::TornTail, "cut at {cut}");
        }
    }

    #[test]
    fn payload_bitflip_is_quarantined_with_known_extent() {
        let mut rec = encode_record(b"verdicts for table 7");
        let total = rec.len();
        rec[RECORD_HEADER_LEN + 3] ^= 0x40;
        assert_eq!(decode_record(&rec), DecodeStep::CorruptPayload { consumed: total });
    }

    #[test]
    fn header_bitflip_is_a_torn_tail() {
        for byte in 0..12 {
            let mut rec = encode_record(b"payload");
            rec[byte] ^= 0x01;
            assert_eq!(decode_record(&rec), DecodeStep::TornTail, "flip at {byte}");
        }
    }

    #[test]
    fn stream_of_records_decodes_in_order() {
        let mut stream = Vec::new();
        for i in 0..5u8 {
            stream.extend_from_slice(&encode_record(&[i; 7]));
        }
        let mut at = 0;
        let mut seen = Vec::new();
        while at < stream.len() {
            match decode_record(&stream[at..]) {
                DecodeStep::Record { payload, consumed } => {
                    seen.push(payload[0]);
                    at += consumed;
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn insane_length_is_rejected_not_allocated() {
        let mut rec = encode_record(b"x");
        let bad_len = (MAX_RECORD_LEN as u32) + 1;
        rec[4..8].copy_from_slice(&bad_len.to_le_bytes());
        rec[8..12].copy_from_slice(&(bad_len ^ LEN_GUARD).to_le_bytes());
        assert_eq!(decode_record(&rec), DecodeStep::TornTail);
    }
}
