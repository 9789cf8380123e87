//! A minimal HPACK (RFC 7541) implementation: static table + literal
//! fields, no dynamic table, no Huffman coding.
//!
//! Real header compression only matters here because it determines the
//! *sizes* of request/response HEADERS records on the wire — the paper's
//! traffic monitor distinguishes GET-carrying records from HTTP/2 control
//! records purely by TLS record length. A stateless HPACK produces
//! realistic (slightly conservative) sizes while keeping the codec
//! exactly invertible.

use h2priv_util::bytes::{Bytes, BytesMut};

/// The subset of the RFC 7541 static table this codec uses. Index = 1 +
/// position in this slice (HPACK indices are 1-based).
const STATIC_TABLE: &[(&str, &str)] = &[
    (":authority", ""),
    (":method", "GET"),
    (":method", "POST"),
    (":path", "/"),
    (":path", "/index.html"),
    (":scheme", "http"),
    (":scheme", "https"),
    (":status", "200"),
    (":status", "204"),
    (":status", "206"),
    (":status", "304"),
    (":status", "400"),
    (":status", "404"),
    (":status", "500"),
    ("accept-charset", ""),
    ("accept-encoding", "gzip, deflate"),
    ("accept-language", ""),
    ("accept-ranges", ""),
    ("accept", ""),
    ("access-control-allow-origin", ""),
    ("age", ""),
    ("allow", ""),
    ("authorization", ""),
    ("cache-control", ""),
    ("content-disposition", ""),
    ("content-encoding", ""),
    ("content-language", ""),
    ("content-length", ""),
    ("content-location", ""),
    ("content-range", ""),
    ("content-type", ""),
    ("cookie", ""),
    ("date", ""),
    ("etag", ""),
    ("expect", ""),
    ("expires", ""),
    ("from", ""),
    ("host", ""),
    ("if-match", ""),
    ("if-modified-since", ""),
    ("if-none-match", ""),
    ("if-range", ""),
    ("if-unmodified-since", ""),
    ("last-modified", ""),
    ("link", ""),
    ("location", ""),
    ("max-forwards", ""),
    ("proxy-authenticate", ""),
    ("proxy-authorization", ""),
    ("range", ""),
    ("referer", ""),
    ("refresh", ""),
    ("retry-after", ""),
    ("server", ""),
    ("set-cookie", ""),
    ("strict-transport-security", ""),
    ("transfer-encoding", ""),
    ("user-agent", ""),
    ("vary", ""),
    ("via", ""),
    ("www-authenticate", ""),
];

/// Largest continuation value (beyond the prefix limit) this codec's
/// decoder accepts: five 7-bit groups, i.e. `2^35 − 1`. The encoder
/// refuses anything larger so every encoded integer round-trips.
pub const MAX_INT_CONTINUATION: usize = (1usize << 35) - 1;

/// An integer too large for the bounded HPACK varint.
///
/// `decode_int` rejects continuations past five 7-bit groups as
/// corrupt, so an unbounded encoder would happily emit integers its own
/// decoder refuses — an encode-side error, not a silent truncation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntEncodeError {
    /// The value that did not fit.
    pub value: usize,
}

impl core::fmt::Display for IntEncodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "HPACK integer {} exceeds the bounded varint range",
            self.value
        )
    }
}

/// Encodes an HPACK integer with an `n`-bit prefix into `out`, with
/// `mask` providing the pattern bits above the prefix. Fails (writing
/// nothing) when the continuation would exceed what [`decode_int`]
/// accepts.
fn try_encode_int(
    out: &mut BytesMut,
    mask: u8,
    n: u8,
    mut value: usize,
) -> Result<(), IntEncodeError> {
    let limit = (1usize << n) - 1;
    if value < limit {
        out.put_u8(mask | value as u8);
        return Ok(());
    }
    if value - limit > MAX_INT_CONTINUATION {
        return Err(IntEncodeError { value });
    }
    out.put_u8(mask | limit as u8);
    value -= limit;
    while value >= 128 {
        out.put_u8((value % 128) as u8 | 0x80);
        value /= 128;
    }
    out.put_u8(value as u8);
    Ok(())
}

/// Infallible wrapper for call sites whose values are bounded by
/// construction (static-table indices, header string lengths).
fn encode_int(out: &mut BytesMut, mask: u8, n: u8, value: usize) {
    try_encode_int(out, mask, n, value).expect("HPACK integer within bounded varint range");
}

/// Decodes an HPACK integer with an `n`-bit prefix. Returns (value,
/// bytes consumed).
fn decode_int(buf: &[u8], n: u8) -> Option<(usize, usize)> {
    let limit = (1usize << n) - 1;
    let first = *buf.first()? as usize & limit;
    if first < limit {
        return Some((first, 1));
    }
    let mut value = limit;
    let mut shift = 0u32;
    for (i, b) in buf.iter().enumerate().skip(1) {
        value += ((*b & 0x7f) as usize) << shift;
        shift += 7;
        if b & 0x80 == 0 {
            return Some((value, i + 1));
        }
        if shift > 28 {
            return None; // absurd integer: corrupt block
        }
    }
    None
}

fn encode_string(out: &mut BytesMut, s: &str) {
    encode_int(out, 0x00, 7, s.len()); // H bit clear: raw bytes
    out.extend_from_slice(s.as_bytes());
}

fn decode_str(buf: &[u8]) -> Option<(&str, usize)> {
    let huffman = *buf.first()? & 0x80 != 0;
    if huffman {
        return None; // not produced by this encoder
    }
    let (len, used) = decode_int(buf, 7)?;
    let end = used + len;
    if buf.len() < end {
        return None;
    }
    let s = std::str::from_utf8(&buf[used..end]).ok()?;
    Some((s, end))
}

/// Decodes one field, borrowing literal strings from the block (static
/// table entries borrow `'static`). Returns ((name, value), bytes used).
fn decode_field(buf: &[u8]) -> Option<((&str, &str), usize)> {
    let b = *buf.first()?;
    if b & 0x80 != 0 {
        // Indexed field.
        let (idx, used) = decode_int(buf, 7)?;
        if idx == 0 || idx > STATIC_TABLE.len() {
            return None;
        }
        Some((STATIC_TABLE[idx - 1], used))
    } else if b & 0xf0 == 0x00 {
        // Literal without indexing.
        let (idx, mut used) = decode_int(buf, 4)?;
        let name = if idx == 0 {
            let (n, u) = decode_str(&buf[used..])?;
            used += u;
            n
        } else {
            if idx > STATIC_TABLE.len() {
                return None;
            }
            STATIC_TABLE[idx - 1].0
        };
        let (value, u) = decode_str(&buf[used..])?;
        used += u;
        Some(((name, value), used))
    } else {
        None // encodings we never produce
    }
}

fn find_exact(name: &str, value: &str) -> Option<usize> {
    STATIC_TABLE
        .iter()
        .position(|(n, v)| *n == name && *v == value)
        .map(|i| i + 1)
}

fn find_name(name: &str) -> Option<usize> {
    STATIC_TABLE
        .iter()
        .position(|(n, _)| *n == name)
        .map(|i| i + 1)
}

/// Encodes a header list into an HPACK block (stateless; never updates a
/// dynamic table).
pub fn encode(headers: &[(&str, &str)]) -> Bytes {
    // Over-estimate the block size (prefix bytes are at most a few per
    // field) so the whole build is a single allocation.
    let cap = headers.iter().map(|(n, v)| n.len() + v.len() + 6).sum();
    let mut out = BytesMut::with_capacity(cap);
    encode_into(&mut out, headers);
    out.freeze()
}

/// Appends the HPACK encoding of a header list to `out` — the zero-copy
/// core of [`encode`], for callers that embed the block in a larger
/// frame without an intermediate buffer.
pub fn encode_into(out: &mut BytesMut, headers: &[(&str, &str)]) {
    for (name, value) in headers {
        if let Some(idx) = find_exact(name, value) {
            // Indexed field: '1' + 7-bit index.
            encode_int(out, 0x80, 7, idx);
        } else if let Some(idx) = find_name(name) {
            // Literal without indexing, indexed name: '0000' + 4-bit index.
            encode_int(out, 0x00, 4, idx);
            encode_string(out, value);
        } else {
            // Literal without indexing, new name.
            out.put_u8(0x00);
            encode_string(out, name);
            encode_string(out, value);
        }
    }
}

/// Decodes an HPACK block produced by [`encode`].
///
/// Returns `None` on malformed input (including encodings this codec
/// never produces, e.g. dynamic-table references).
pub fn decode(block: &[u8]) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut buf = block;
    while !buf.is_empty() {
        let ((name, value), used) = decode_field(buf)?;
        out.push((name.to_string(), value.to_string()));
        buf = &buf[used..];
    }
    Some(out)
}

/// Appends a Firefox-like GET request header block to `out`.
pub fn encode_request_into(out: &mut BytesMut, authority: &str, path: &str) {
    encode_into(
        out,
        &[
            (":method", "GET"),
            (":scheme", "https"),
            (":authority", authority),
            (":path", path),
            ("accept-encoding", "gzip, deflate"),
            (
                "user-agent",
                "Mozilla/5.0 (X11; Linux x86_64; rv:74.0) Gecko/20100101 Firefox/74.0",
            ),
        ],
    );
}

/// A parsed GET request whose strings borrow from the block (no
/// per-header `String`s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRef<'a> {
    /// `:authority` pseudo-header.
    pub authority: &'a str,
    /// `:path` pseudo-header.
    pub path: &'a str,
}

/// Parses a request block produced by [`encode_request_into`] without
/// allocating. The whole block must decode cleanly (a malformed
/// trailing field rejects the request).
pub fn decode_request_ref(block: &[u8]) -> Option<RequestRef<'_>> {
    let (mut method, mut authority, mut path) = (None, None, None);
    let mut buf = block;
    while !buf.is_empty() {
        let ((name, value), used) = decode_field(buf)?;
        match name {
            ":method" => method = Some(value),
            ":authority" => authority = Some(value),
            ":path" => path = Some(value),
            _ => {}
        }
        buf = &buf[used..];
    }
    if method? != "GET" {
        return None;
    }
    Some(RequestRef {
        authority: authority?,
        path: path?,
    })
}

/// Appends a 200 response header block to `out`. The content length is
/// formatted into a stack buffer, so the only allocations are `out`'s
/// own growth.
pub fn encode_response_into(out: &mut BytesMut, content_length: u64, content_type: &str) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut v = content_length;
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let cl = std::str::from_utf8(&digits[i..]).expect("decimal digits are ASCII");
    encode_into(
        out,
        &[
            (":status", "200"),
            ("content-type", content_type),
            ("content-length", cl),
            ("server", "nginx/1.16.1"),
            ("cache-control", "no-cache"),
        ],
    );
}

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// `:status` code.
    pub status: u16,
    /// `content-length` if present.
    pub content_length: Option<u64>,
}

/// Parses a response block produced by [`encode_response_into`].
pub fn decode_response(block: &[u8]) -> Option<Response> {
    let headers = decode(block)?;
    let get = |k: &str| headers.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
    Some(Response {
        status: get(":status")?.parse().ok()?,
        content_length: get("content-length").and_then(|v| v.parse().ok()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_util::check::{self, Gen};
    use h2priv_util::prop_assert_eq;

    #[test]
    fn integer_codec_boundaries() {
        let mut b = BytesMut::new();
        encode_int(&mut b, 0x80, 7, 126);
        assert_eq!(&b[..], &[0x80 | 126]);
        let mut b = BytesMut::new();
        encode_int(&mut b, 0x80, 7, 127);
        assert_eq!(&b[..], &[0xff, 0x00]);
        let mut b = BytesMut::new();
        // 1337 with a 4-bit prefix: 15, then 1322 = 0x2a | 0x80, 0x0a.
        encode_int(&mut b, 0x00, 4, 1337);
        assert_eq!(&b[..], &[0x0f, 0xaa, 0x0a]);
        assert_eq!(decode_int(&[0x0f, 0xaa, 0x0a], 4), Some((1337, 3)));
        // RFC 7541 C.1.2 (5-bit prefix).
        let mut b = BytesMut::new();
        encode_int(&mut b, 0x00, 5, 1337);
        assert_eq!(&b[..], &[0x1f, 0x9a, 0x0a]);
    }

    #[test]
    fn request_roundtrip() {
        let mut block = BytesMut::new();
        encode_request_into(&mut block, "www.isidewith.com", "/results/2020");
        let req = decode_request_ref(&block).expect("decodes");
        assert_eq!(req.authority, "www.isidewith.com");
        assert_eq!(req.path, "/results/2020");
        // Realistic GET size: comfortably bigger than control frames.
        assert!(
            block.len() > 60 && block.len() < 300,
            "block len {}",
            block.len()
        );
    }

    #[test]
    fn response_roundtrip() {
        let mut block = BytesMut::new();
        encode_response_into(&mut block, 9_500, "text/html");
        let resp = decode_response(&block).expect("decodes");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_length, Some(9_500));
    }

    #[test]
    fn exact_static_match_is_one_byte() {
        let block = encode(&[(":method", "GET")]);
        assert_eq!(block.len(), 1);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode(&[0x40, 0xff]), None); // incremental indexing unsupported
        assert_eq!(decode(&[0x00, 0x85, 0x01]), None); // Huffman flag set
    }

    #[test]
    fn int_roundtrip() {
        check::run("int_roundtrip", 512, |g: &mut Gen| {
            let v = g.usize(0, 9_999_999);
            let n = g.u8(1, 7);
            let mut b = BytesMut::new();
            encode_int(&mut b, 0, n, v);
            prop_assert_eq!(decode_int(&b, n), Some((v, b.len())));
        });
    }

    #[test]
    fn int_roundtrip_at_power_of_two_boundaries() {
        // The narrowing-cast audit's boundary values: every one must
        // round-trip exactly at every prefix width, on both sides of
        // each power of two.
        check::run("int_boundaries", 64, |g: &mut Gen| {
            let n = g.u8(1, 7);
            for v in [
                (1usize << 16) - 1,
                1usize << 16,
                (1usize << 24) - 1,
                1usize << 24,
            ] {
                let mut b = BytesMut::new();
                encode_int(&mut b, 0, n, v);
                prop_assert_eq!(decode_int(&b, n), Some((v, b.len())));
            }
        });
    }

    #[test]
    fn int_encode_rejects_what_decode_rejects() {
        // The largest encodable value round-trips; one past it errors
        // out instead of emitting bytes the decoder calls corrupt.
        for n in 1..=7u8 {
            let limit = (1usize << n) - 1;
            let max = limit + MAX_INT_CONTINUATION;
            let mut b = BytesMut::new();
            try_encode_int(&mut b, 0, n, max).expect("max value encodes");
            assert_eq!(decode_int(&b, n), Some((max, b.len())));
            let mut b = BytesMut::new();
            assert_eq!(
                try_encode_int(&mut b, 0, n, max + 1),
                Err(IntEncodeError { value: max + 1 })
            );
            assert!(b.is_empty(), "failed encode must write nothing");
        }
    }

    #[test]
    fn header_roundtrip() {
        check::run("header_roundtrip", 512, |g: &mut Gen| {
            const PATH_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789/._-";
            let path: String = (0..g.usize(1, 64))
                .map(|_| char::from(*g.choose(PATH_CHARS)))
                .collect();
            let val = g.ascii_string(48);
            let hs = vec![
                (":method", "GET"),
                (":path", path.as_str()),
                ("x-custom-header", val.as_str()),
            ];
            let block = encode(&hs);
            let dec = decode(&block).expect("roundtrip");
            let expect: Vec<(String, String)> = hs
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect();
            prop_assert_eq!(dec, expect);
        });
    }
}
