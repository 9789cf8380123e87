//! Sealing and opening of the record stream.
//!
//! [`RecordSealer`] turns plaintext messages into the on-wire byte stream
//! (splitting at the 16 KiB record limit and adding header + AEAD tag
//! overhead) while building the ground-truth [`WireMap`].
//! [`RecordOpener`] incrementally re-parses the stream on the receiving
//! side — the same reassembly an endpoint's TLS stack performs.

use crate::record::{
    ContentType, RecordHeader, AEAD_TAG_LEN, MAX_RECORD_PLAINTEXT, RECORD_HEADER_LEN,
    RECORD_OVERHEAD, WIRE_VERSION,
};
use crate::wire_map::{RecordTag, WireMap, WireSpan};
use h2priv_util::bytes::{with_pool, Bytes};

/// Length of the cleartext length prefix inside a padded record body.
pub const PAD_PREFIX_LEN: usize = 2;

/// Encrypt-direction half of a session: plaintext in, wire bytes out.
#[derive(Debug, Default)]
pub struct RecordSealer {
    wire_offset: u64,
    map: WireMap,
    records_sealed: u64,
    /// Pad ApplicationData record plaintexts up to a multiple of this
    /// block size (RFC 8467 style). 0 = no padding.
    pad_block: usize,
    pad_bytes: u64,
}

impl RecordSealer {
    /// Creates a sealer at stream offset zero.
    pub fn new() -> RecordSealer {
        RecordSealer::default()
    }

    /// Creates a sealer that pads every ApplicationData record's
    /// plaintext up to a multiple of `block` bytes. Padded records carry
    /// a [`PAD_PREFIX_LEN`]-byte cleartext length prefix inside the
    /// (modelled) ciphertext; the peer's opener must strip it (see
    /// [`RecordOpener::with_padding_strip`]).
    pub fn with_padding(block: usize) -> RecordSealer {
        assert!(block > 0, "pad block must be positive");
        assert!(
            block + AEAD_TAG_LEN <= MAX_RECORD_PLAINTEXT,
            "pad block exceeds record capacity"
        );
        RecordSealer {
            pad_block: block,
            ..RecordSealer::default()
        }
    }

    /// Seals one message, fragmenting into records of at most 16 KiB
    /// plaintext. Returns the wire bytes to hand to TCP, in a buffer
    /// taken from the thread's pool ([`h2priv_util::bytes::with_pool`]):
    /// whoever holds the last handle (TCP, once the bytes are
    /// acknowledged) gives it back.
    pub fn seal(&mut self, ct: ContentType, plaintext: &[u8], tag: RecordTag) -> Bytes {
        let mut pooled = with_pool(|pool| pool.acquire(plaintext.len() + RECORD_OVERHEAD));
        let out = pooled.buf();
        if self.pad_block > 0 && ct == ContentType::ApplicationData {
            self.seal_padded(out, plaintext, tag);
            return pooled.freeze();
        }
        let mut rest = plaintext;
        loop {
            let take = rest.len().min(MAX_RECORD_PLAINTEXT - AEAD_TAG_LEN);
            let body_len = take + AEAD_TAG_LEN;
            Self::put_header(out, ct, body_len);
            out.extend_from_slice(&rest[..take]);
            // The AEAD tag: opaque bytes on the wire (zeros here — no
            // real cryptography in the model).
            out.extend_from_slice(&[0u8; AEAD_TAG_LEN]);
            self.log_record(body_len, tag);
            rest = &rest[take..];
            if rest.is_empty() {
                break;
            }
        }
        pooled.freeze()
    }

    /// Padded variant: each record's plaintext is
    /// `[2-byte payload len][payload][zero pad]`, rounded up to a
    /// multiple of `pad_block` (capped at the record plaintext limit).
    fn seal_padded(&mut self, out: &mut Vec<u8>, plaintext: &[u8], tag: RecordTag) {
        let max_inner = MAX_RECORD_PLAINTEXT - AEAD_TAG_LEN;
        let mut rest = plaintext;
        loop {
            let take = rest.len().min(max_inner - PAD_PREFIX_LEN);
            let unpadded = PAD_PREFIX_LEN + take;
            let inner = unpadded
                .div_ceil(self.pad_block)
                .saturating_mul(self.pad_block)
                .min(max_inner);
            let body_len = inner + AEAD_TAG_LEN;
            Self::put_header(out, ContentType::ApplicationData, body_len);
            out.extend_from_slice(&(take as u16).to_be_bytes());
            out.extend_from_slice(&rest[..take]);
            // Zero fill and the AEAD tag in one resize.
            out.resize(out.len() + inner - unpadded + AEAD_TAG_LEN, 0);
            self.pad_bytes += (inner - take) as u64;
            self.log_record(body_len, tag);
            rest = &rest[take..];
            if rest.is_empty() {
                break;
            }
        }
    }

    /// Appends one record's cleartext header, first reserving room for
    /// the whole record so it is written without reallocating.
    fn put_header(out: &mut Vec<u8>, ct: ContentType, body_len: usize) {
        out.reserve(RECORD_HEADER_LEN + body_len);
        let header = RecordHeader {
            content_type: ct,
            version: WIRE_VERSION,
            length: body_len as u16,
        };
        out.extend_from_slice(&header.encode());
    }

    /// Logs the span of the record just written.
    fn log_record(&mut self, body_len: usize, tag: RecordTag) {
        let total = (RECORD_HEADER_LEN + body_len) as u64;
        self.map.push(WireSpan {
            start: self.wire_offset,
            end: self.wire_offset + total,
            tag,
        });
        self.wire_offset += total;
        self.records_sealed += 1;
    }

    /// Total padding overhead emitted so far (prefix + zero fill), in
    /// bytes. Always 0 for an unpadded sealer.
    pub fn pad_bytes(&self) -> u64 {
        self.pad_bytes
    }

    /// Current TCP stream offset (bytes emitted so far).
    pub fn wire_offset(&self) -> u64 {
        self.wire_offset
    }

    /// Records sealed so far.
    pub fn records_sealed(&self) -> u64 {
        self.records_sealed
    }

    /// The ground-truth map built so far.
    pub fn wire_map(&self) -> &WireMap {
        &self.map
    }

    /// Consumes the sealer, returning its ground-truth map.
    pub fn into_wire_map(self) -> WireMap {
        self.map
    }
}

/// One record recovered from the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenedRecord {
    /// The content type from the cleartext header.
    pub content_type: ContentType,
    /// The recovered plaintext (body minus AEAD tag), in a buffer taken
    /// from the thread's pool: reclaim it
    /// ([`h2priv_util::bytes::BytesPool::reclaim`]) once decoded.
    pub plaintext: Bytes,
}

/// Decrypt-direction half: wire bytes in, records out.
///
/// The stream buffer is head-indexed: consuming a record advances a
/// cursor instead of shifting the tail down, so parsing a burst of n
/// records costs O(n) rather than O(n²). The consumed prefix is
/// reclaimed on the next push once it is more than half the buffer, so
/// the buffer stays under two records plus one push even when segment
/// boundaries never line up with record boundaries.
#[derive(Debug, Default)]
pub struct RecordOpener {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`.
    head: usize,
    /// Strip RFC 8467-style padding from ApplicationData records (the
    /// peer sealed with [`RecordSealer::with_padding`]).
    strip_padding: bool,
}

impl RecordOpener {
    /// Creates an empty opener.
    pub fn new() -> RecordOpener {
        RecordOpener::default()
    }

    /// Creates an opener that strips block padding from ApplicationData
    /// records: the first [`PAD_PREFIX_LEN`] plaintext bytes give the
    /// real payload length, the rest is zero fill.
    pub fn with_padding_strip() -> RecordOpener {
        RecordOpener {
            strip_padding: true,
            ..RecordOpener::default()
        }
    }

    /// Appends received stream bytes.
    pub fn push(&mut self, data: &[u8]) {
        if self.head * 2 > self.buf.len() {
            // The consumed prefix outweighs the live suffix: move the
            // suffix to the front, copying at most half the buffer.
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Extracts the next complete record, if the buffer holds one.
    ///
    /// # Panics
    /// Panics if the stream is corrupt (unknown content type or a body
    /// shorter than the AEAD tag) — in this simulation that indicates a
    /// bug, not an attack, so failing fast is correct.
    pub fn poll_record(&mut self) -> Option<OpenedRecord> {
        let pending = &self.buf[self.head..];
        if pending.len() < RECORD_HEADER_LEN {
            return None;
        }
        let header = RecordHeader::decode(&pending[..RECORD_HEADER_LEN])
            .expect("corrupt TLS stream: bad record header");
        let body_len = header.length as usize;
        assert!(
            body_len >= AEAD_TAG_LEN,
            "corrupt TLS stream: body shorter than AEAD tag"
        );
        if pending.len() < RECORD_HEADER_LEN + body_len {
            return None;
        }
        let body = &pending[RECORD_HEADER_LEN..RECORD_HEADER_LEN + body_len - AEAD_TAG_LEN];
        let plaintext = if self.strip_padding && header.content_type == ContentType::ApplicationData
        {
            assert!(
                body.len() >= PAD_PREFIX_LEN,
                "corrupt padded record: body shorter than length prefix"
            );
            let real = u16::from_be_bytes([body[0], body[1]]) as usize;
            assert!(
                PAD_PREFIX_LEN + real <= body.len(),
                "corrupt padded record: payload length exceeds body"
            );
            &body[PAD_PREFIX_LEN..PAD_PREFIX_LEN + real]
        } else {
            body
        };
        let mut pooled = with_pool(|pool| pool.acquire(plaintext.len()));
        pooled.buf().extend_from_slice(plaintext);
        self.head += RECORD_HEADER_LEN + body_len;
        Some(OpenedRecord {
            content_type: header.content_type,
            plaintext: pooled.freeze(),
        })
    }

    /// Bytes buffered but not yet forming a complete record.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_util::bytes::BytesMut;
    use h2priv_util::check::{self, Gen};
    use h2priv_util::prop_assert_eq;

    #[test]
    fn seal_open_roundtrip_single() {
        let mut s = RecordSealer::new();
        let msg: Vec<u8> = (0..200u8).collect();
        let wire = s.seal(ContentType::Handshake, &msg, RecordTag::NONE);
        let mut o = RecordOpener::new();
        o.push(&wire);
        let rec = o.poll_record().unwrap();
        assert_eq!(rec.content_type, ContentType::Handshake);
        assert_eq!(&rec.plaintext[..], &msg[..]);
        assert!(o.poll_record().is_none());
        assert_eq!(o.pending_bytes(), 0);
    }

    #[test]
    fn large_message_fragments_at_record_limit() {
        let mut s = RecordSealer::new();
        let msg = vec![7u8; 40_000];
        let wire = s.seal(ContentType::ApplicationData, &msg, RecordTag::NONE);
        assert!(s.records_sealed() >= 3);
        let mut o = RecordOpener::new();
        o.push(&wire);
        let mut total = 0;
        while let Some(rec) = o.poll_record() {
            assert!(rec.plaintext.len() <= MAX_RECORD_PLAINTEXT);
            total += rec.plaintext.len();
        }
        assert_eq!(total, 40_000);
    }

    #[test]
    fn opener_handles_byte_by_byte_arrival() {
        let mut s = RecordSealer::new();
        let wire = s.seal(
            ContentType::ApplicationData,
            b"hello records",
            RecordTag::NONE,
        );
        let mut o = RecordOpener::new();
        let mut got = None;
        for b in wire.iter() {
            o.push(&[*b]);
            if let Some(r) = o.poll_record() {
                got = Some(r);
            }
        }
        assert_eq!(&got.unwrap().plaintext[..], b"hello records");
    }

    #[test]
    fn wire_map_tracks_offsets_exactly() {
        let mut s = RecordSealer::new();
        let t1 = RecordTag {
            stream_id: 1,
            object_id: 10,
            copy: 0,
            class: crate::TrafficClass::ObjectData,
        };
        let t2 = RecordTag {
            stream_id: 3,
            object_id: 11,
            copy: 0,
            class: crate::TrafficClass::ObjectData,
        };
        let w1 = s.seal(ContentType::ApplicationData, &[0u8; 100], t1);
        let w2 = s.seal(ContentType::ApplicationData, &[0u8; 50], t2);
        let map = s.wire_map();
        assert_eq!(map.spans().len(), 2);
        assert_eq!(map.spans()[0].start, 0);
        assert_eq!(map.spans()[0].end, w1.len() as u64);
        assert_eq!(map.spans()[1].start, w1.len() as u64);
        assert_eq!(map.spans()[1].end, (w1.len() + w2.len()) as u64);
        assert_eq!(map.tag_at(3).unwrap().object_id, 10);
        assert_eq!(map.tag_at(w1.len() as u64).unwrap().object_id, 11);
    }

    #[test]
    fn multiple_records_in_one_push() {
        let mut s = RecordSealer::new();
        let mut wire = BytesMut::new();
        for i in 0..5u8 {
            wire.extend_from_slice(&s.seal(
                ContentType::ApplicationData,
                &vec![i; 10 * (i as usize + 1)],
                RecordTag::NONE,
            ));
        }
        let mut o = RecordOpener::new();
        o.push(&wire);
        let lens: Vec<usize> = std::iter::from_fn(|| o.poll_record())
            .map(|r| r.plaintext.len())
            .collect();
        assert_eq!(lens, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn opener_buffer_stays_bounded_when_pushes_straddle_records() {
        // 2,078-byte records (a 2 KB DATA chunk's) arriving in 1,448-byte
        // segments: no push ends on a record boundary before the
        // 1,504,472-byte common multiple, so the buffer is never fully
        // consumed at push time and must be compacted to stay bounded.
        const RECORD: usize = 2_078;
        const SEGMENT: usize = 1_448;
        let mut s = RecordSealer::new();
        let mut wire = Vec::new();
        for _ in 0..600 {
            let plaintext = [0u8; RECORD - RECORD_HEADER_LEN - AEAD_TAG_LEN];
            wire.extend_from_slice(&s.seal(
                ContentType::ApplicationData,
                &plaintext,
                RecordTag::NONE,
            ));
        }
        let mut o = RecordOpener::new();
        let mut records = 0;
        for segment in wire.chunks(SEGMENT) {
            o.push(segment);
            assert!(
                o.buf.len() < 2 * RECORD + SEGMENT,
                "opener buffer grew to {} bytes",
                o.buf.len()
            );
            while o.poll_record().is_some() {
                records += 1;
            }
        }
        assert_eq!(records, 600);
    }

    #[test]
    fn padded_records_round_up_to_block_multiple() {
        let mut s = RecordSealer::with_padding(4096);
        let wire = s.seal(ContentType::ApplicationData, &[9u8; 100], RecordTag::NONE);
        // Inner plaintext = prefix(2) + 100 -> padded to 4096; body adds
        // the AEAD tag.
        assert_eq!(wire.len(), RECORD_HEADER_LEN + 4096 + AEAD_TAG_LEN);
        assert_eq!(s.pad_bytes(), 4096 - 100);
        let mut o = RecordOpener::with_padding_strip();
        o.push(&wire);
        let rec = o.poll_record().unwrap();
        assert_eq!(&rec.plaintext[..], &[9u8; 100][..]);
        assert!(o.poll_record().is_none());
    }

    #[test]
    fn padding_leaves_handshake_records_alone() {
        let mut s = RecordSealer::with_padding(4096);
        let wire = s.seal(ContentType::Handshake, b"hs", RecordTag::NONE);
        assert_eq!(wire.len(), RECORD_HEADER_LEN + 2 + AEAD_TAG_LEN);
        let mut o = RecordOpener::with_padding_strip();
        o.push(&wire);
        assert_eq!(&o.poll_record().unwrap().plaintext[..], b"hs");
    }

    #[test]
    fn strip_opener_reads_unpadded_peer_without_harm_only_when_padded() {
        // An opener without strip mode sees padded bytes verbatim
        // (prefix + zeros included) — the observer's view.
        let mut s = RecordSealer::with_padding(256);
        let wire = s.seal(ContentType::ApplicationData, &[1u8; 10], RecordTag::NONE);
        let mut o = RecordOpener::new();
        o.push(&wire);
        assert_eq!(o.poll_record().unwrap().plaintext.len(), 256);
    }

    #[test]
    fn padded_roundtrip_any_sizes_and_blocks() {
        check::run(
            "padded_roundtrip_any_sizes_and_blocks",
            128,
            |g: &mut Gen| {
                let block = [128usize, 1024, 4096, 16_368 - 2][g.usize(0, 3)];
                let mut s = RecordSealer::with_padding(block);
                let mut o = RecordOpener::with_padding_strip();
                let mut expected = Vec::new();
                for i in 0..g.usize(1, 5) {
                    let payload = vec![(i % 251) as u8; g.usize(0, 40_000)];
                    let wire = s.seal(ContentType::ApplicationData, &payload, RecordTag::NONE);
                    // Every padded record plaintext is a block multiple or
                    // at the record cap.
                    o.push(&wire);
                    expected.extend_from_slice(&payload);
                }
                let mut got = Vec::new();
                while let Some(rec) = o.poll_record() {
                    got.extend_from_slice(&rec.plaintext);
                }
                prop_assert_eq!(got.len(), expected.len());
                prop_assert_eq!(got == expected, true);
            },
        );
    }

    #[test]
    fn roundtrip_any_sizes() {
        check::run("roundtrip_any_sizes", 256, |g: &mut Gen| {
            let sizes: Vec<usize> = (0..g.usize(1, 7)).map(|_| g.usize(0, 19_999)).collect();
            let mut s = RecordSealer::new();
            let mut o = RecordOpener::new();
            let mut expected_total = 0;
            for (i, size) in sizes.iter().enumerate() {
                let payload = vec![(i % 251) as u8; *size];
                // Zero-length messages still produce a record (tag-only).
                let wire = s.seal(ContentType::ApplicationData, &payload, RecordTag::NONE);
                o.push(&wire);
                expected_total += size;
            }
            let mut got_total = 0;
            while let Some(rec) = o.poll_record() {
                got_total += rec.plaintext.len();
            }
            prop_assert_eq!(got_total, expected_total);
            prop_assert_eq!(o.pending_bytes(), 0);
        });
    }
}
