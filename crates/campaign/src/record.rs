//! The checksummed line protocol shared by the worker pipe and the
//! journal.
//!
//! Every line — on the worker's stdout pipe and in the on-disk journal —
//! has the same envelope:
//!
//! ```text
//! {"crc":C,"body":{...}}
//! ```
//!
//! where `C` is the CRC-32 (ISO-HDLC) of the *compact serialization of
//! the body object*. Because the workspace's compact JSON writer is
//! deterministic, [`check`] can verify a parsed line by re-serializing
//! its body — no raw-byte bookkeeping needed — and [`stamp`] always
//! produces the same bytes for the same body, which is what makes the
//! journal byte-identical across shard counts: the supervisor appends a
//! worker's validated record line verbatim, and any worker (or any
//! resume) stamps a given cell identically.
//!
//! Body kinds:
//!
//! * `header` — first journal line; names the experiment, trial count,
//!   base seed and total cell count so `--resume` can refuse a journal
//!   written for a different campaign.
//! * `record` — one completed trial: global `cell` index, `(batch,
//!   trial)` coordinates and the integer-only `payload`.
//! * `hello` / `done` — pipe-only worker lifecycle markers bracketing
//!   the worker's assigned cells.

use h2priv_util::crc32::crc32;
use h2priv_util::json::Json;

/// A decoded protocol line.
#[derive(Debug, Clone, PartialEq)]
pub enum LineBody {
    /// Journal header; `fields` is the full body object (including
    /// `kind`) so callers can validate campaign identity fields.
    Header {
        /// The complete header body object.
        fields: Json,
    },
    /// One completed trial.
    Record {
        /// Global cell index (`batch * trials + trial`).
        cell: u64,
        /// Batch index within the campaign.
        batch: u64,
        /// Trial index within the batch.
        trial: u64,
        /// The trial's result payload (integers and bools only, so the
        /// JSON round-trip is bit-exact).
        payload: Json,
    },
    /// Worker greeting: the bounds of the cells it was assigned, every
    /// step-th cell of `[start, end)`.
    Hello {
        /// First cell of the worker's assignment.
        start: u64,
        /// One past the last cell the worker's assignment may hold.
        end: u64,
    },
    /// Worker completion marker.
    Done {
        /// Number of cells the worker emitted.
        cells: u64,
    },
}

/// Builds a `header` body from campaign identity fields.
pub fn header_body(fields: &[(String, Json)]) -> Json {
    let mut obj = vec![("kind".to_string(), Json::Str("header".to_string()))];
    obj.extend(fields.iter().cloned());
    Json::Obj(obj)
}

/// Builds a `record` body for one completed trial.
pub fn record_body(cell: u64, batch: u64, trial: u64, payload: Json) -> Json {
    Json::Obj(vec![
        ("kind".to_string(), Json::Str("record".to_string())),
        ("cell".to_string(), Json::UInt(cell)),
        ("batch".to_string(), Json::UInt(batch)),
        ("trial".to_string(), Json::UInt(trial)),
        ("payload".to_string(), payload),
    ])
}

/// Builds a `hello` body for a worker assigned cells within `[start, end)`.
pub fn hello_body(start: u64, end: u64) -> Json {
    Json::Obj(vec![
        ("kind".to_string(), Json::Str("hello".to_string())),
        ("start".to_string(), Json::UInt(start)),
        ("end".to_string(), Json::UInt(end)),
    ])
}

/// Builds a `done` body for a worker that emitted `cells` records.
pub fn done_body(cells: u64) -> Json {
    Json::Obj(vec![
        ("kind".to_string(), Json::Str("done".to_string())),
        ("cells".to_string(), Json::UInt(cells)),
    ])
}

/// Wraps a body in the checksummed envelope; returns one protocol line
/// (no trailing newline). Deterministic: same body, same bytes.
pub fn stamp(body: &Json) -> String {
    let compact = body.to_string_compact();
    let crc = crc32(compact.as_bytes());
    format!("{{\"crc\":{crc},\"body\":{compact}}}")
}

/// Verifies the envelope checksum of a parsed line and returns the body.
///
/// The checksum is recomputed from the body's compact re-serialization,
/// which matches the stamped bytes because the workspace writer is
/// canonical (it wrote the line in the first place).
///
/// # Errors
/// Reports a missing/mismatched checksum or a malformed envelope.
pub fn check(value: &Json) -> Result<&Json, String> {
    let stamped = value
        .get("crc")
        .and_then(Json::as_u64)
        .ok_or("missing `crc` field")?;
    let body = value.get("body").ok_or("missing `body` field")?;
    let computed = u64::from(crc32(body.to_string_compact().as_bytes()));
    if stamped != computed {
        return Err(format!(
            "checksum mismatch: stamped {stamped}, computed {computed}"
        ));
    }
    Ok(body)
}

fn field_u64(body: &Json, key: &str) -> Result<u64, String> {
    body.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer `{key}` field"))
}

/// Decodes a checksum-verified body into a [`LineBody`].
///
/// # Errors
/// Reports an unknown `kind` or missing fields.
pub fn classify(body: &Json) -> Result<LineBody, String> {
    match body.get("kind").and_then(Json::as_str) {
        Some("header") => Ok(LineBody::Header {
            fields: body.clone(),
        }),
        Some("record") => Ok(LineBody::Record {
            cell: field_u64(body, "cell")?,
            batch: field_u64(body, "batch")?,
            trial: field_u64(body, "trial")?,
            payload: body.get("payload").cloned().ok_or("missing `payload`")?,
        }),
        Some("hello") => Ok(LineBody::Hello {
            start: field_u64(body, "start")?,
            end: field_u64(body, "end")?,
        }),
        Some("done") => Ok(LineBody::Done {
            cells: field_u64(body, "cells")?,
        }),
        Some(other) => Err(format!("unknown line kind `{other}`")),
        None => Err("missing line kind".to_string()),
    }
}

/// Parses, checksum-verifies and decodes one protocol line.
///
/// # Errors
/// Reports JSON syntax errors, checksum failures and unknown shapes.
pub fn parse_line(line: &str) -> Result<LineBody, String> {
    let value = Json::parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
    let body = check(&value)?;
    classify(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_then_parse_roundtrips_every_kind() {
        let payload = Json::Obj(vec![("retrans".to_string(), Json::UInt(7))]);
        let bodies = [
            header_body(&[("experiment".to_string(), Json::Str("x".to_string()))]),
            record_body(12, 2, 0, payload.clone()),
            hello_body(6, 12),
            done_body(6),
        ];
        let expected = [
            LineBody::Header {
                fields: bodies[0].clone(),
            },
            LineBody::Record {
                cell: 12,
                batch: 2,
                trial: 0,
                payload,
            },
            LineBody::Hello { start: 6, end: 12 },
            LineBody::Done { cells: 6 },
        ];
        for (body, want) in bodies.iter().zip(&expected) {
            let line = stamp(body);
            assert_eq!(&parse_line(&line).unwrap(), want, "line: {line}");
        }
    }

    #[test]
    fn stamp_is_deterministic() {
        let body = record_body(3, 0, 3, Json::Obj(vec![]));
        assert_eq!(stamp(&body), stamp(&body));
    }

    #[test]
    fn tampered_body_fails_checksum() {
        let line = stamp(&record_body(3, 0, 3, Json::Obj(vec![])));
        let tampered = line.replace("\"cell\":3", "\"cell\":4");
        let err = parse_line(&tampered).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn tampered_crc_fails_checksum() {
        let line = stamp(&done_body(5));
        let crc_end = line.find(',').unwrap();
        let tampered = format!("{{\"crc\":1{}", &line[crc_end..]);
        assert!(parse_line(&tampered).unwrap_err().contains("checksum"));
    }

    #[test]
    fn unknown_kind_and_missing_fields_are_rejected() {
        let bogus = Json::Obj(vec![("kind".to_string(), Json::Str("meta".to_string()))]);
        assert!(parse_line(&stamp(&bogus)).unwrap_err().contains("unknown"));
        let partial = Json::Obj(vec![
            ("kind".to_string(), Json::Str("record".to_string())),
            ("cell".to_string(), Json::UInt(1)),
        ]);
        assert!(parse_line(&stamp(&partial)).unwrap_err().contains("batch"));
        assert!(parse_line("{\"body\":{}}").unwrap_err().contains("crc"));
    }
}
