//! The append-only campaign journal and its crash recovery.
//!
//! The journal is a jsonl file of [`record`] lines: one
//! `header` line naming the campaign, then one `record` line per
//! completed cell, appended **strictly in global cell order** and
//! flushed per append. The ordering invariant is what makes recovery
//! trivial: a valid journal is always the header plus a contiguous
//! prefix `0..k` of the campaign's cells, so resuming is "replay `k`
//! records into the fold, run cells `k..total`".
//!
//! [`recover`] reads a journal back through the tolerant jsonl reader:
//! a partial final line (the flush a crash interrupted) is *dropped* and
//! reported, while a corrupted complete line — bad JSON, bad checksum,
//! a cell out of sequence — is a hard [`RecoveryError::Corrupt`],
//! because in-place corruption is not something resume can paper over.
//! [`truncate_to`] then cuts the file back to the recovered good prefix
//! before appending resumes.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use h2priv_util::json::Json;
use h2priv_util::jsonl;

use crate::record::{self, LineBody};

/// An open journal, append side.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Creates (truncating any existing file) a journal whose first line
    /// is the stamped `header_line`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn create(path: &Path, header_line: &str) -> io::Result<Journal> {
        let file = File::create(path)?;
        let mut journal = Journal { file };
        journal.append_line(header_line)?;
        Ok(journal)
    }

    /// Opens an existing journal for appending. The caller is expected
    /// to have run [`recover`] + [`truncate_to`] first.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn open_append(path: &Path) -> io::Result<Journal> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal { file })
    }

    /// Appends one protocol line (newline added here) and flushes, so a
    /// crash can only ever lose the line currently being written.
    ///
    /// # Errors
    /// Propagates filesystem errors, including short writes.
    pub fn append_line(&mut self, line: &str) -> io::Result<()> {
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()
    }
}

/// One replayed journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordEntry {
    /// Global cell index.
    pub cell: u64,
    /// Batch index.
    pub batch: u64,
    /// Trial index within the batch.
    pub trial: u64,
    /// The trial's result payload.
    pub payload: Json,
}

/// The recovered good prefix of a journal.
#[derive(Debug)]
pub struct Recovery {
    /// The header body (campaign identity fields).
    pub header: Json,
    /// Replayed records; guaranteed contiguous cells `0..records.len()`.
    pub records: Vec<RecordEntry>,
    /// Length of the good prefix in bytes; [`truncate_to`] target.
    pub good_bytes: u64,
    /// Bytes of partial final line dropped, if the file ended mid-write.
    pub dropped_tail: u64,
}

/// Why a journal could not be recovered.
#[derive(Debug)]
pub enum RecoveryError {
    /// Filesystem failure.
    Io(io::Error),
    /// In-place corruption: a *complete* line that is invalid (bad
    /// JSON/UTF-8, bad checksum, wrong kind, cell out of sequence).
    Corrupt {
        /// 1-based index of the offending line among parsed lines.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "journal I/O error: {e}"),
            RecoveryError::Corrupt { line, message } => {
                write!(f, "journal corrupt at line {line}: {message}")
            }
        }
    }
}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

/// Reads a journal back, dropping a truncated final line and verifying
/// the header/record structure and every checksum.
///
/// # Errors
/// [`RecoveryError::Corrupt`] on any invalid *complete* line; I/O errors
/// are propagated.
pub fn recover(path: &Path) -> Result<Recovery, RecoveryError> {
    let bytes = std::fs::read(path)?;
    let read = jsonl::read_tolerant(&bytes).map_err(|e| RecoveryError::Corrupt {
        line: e.line,
        message: e.message,
    })?;
    let good_bytes = read
        .truncated
        .as_ref()
        .map_or(bytes.len(), |t| t.byte_offset) as u64;
    let dropped_tail = read.truncated.as_ref().map_or(0, |t| t.len) as u64;

    let mut values = read.records.into_iter().enumerate();
    let (_, first) = values.next().ok_or(RecoveryError::Corrupt {
        line: 1,
        message: "journal has no header line".to_string(),
    })?;
    let header = decode(&first, 1)?;
    let LineBody::Header { fields } = header else {
        return Err(RecoveryError::Corrupt {
            line: 1,
            message: "first journal line is not a header".to_string(),
        });
    };

    let mut records = Vec::new();
    for (i, value) in values {
        let line = i + 1;
        match decode(&value, line)? {
            LineBody::Record {
                cell,
                batch,
                trial,
                payload,
            } => {
                let expected = records.len() as u64;
                if cell != expected {
                    return Err(RecoveryError::Corrupt {
                        line,
                        message: format!("cell {cell} out of sequence (expected {expected})"),
                    });
                }
                records.push(RecordEntry {
                    cell,
                    batch,
                    trial,
                    payload,
                });
            }
            other => {
                return Err(RecoveryError::Corrupt {
                    line,
                    message: format!("unexpected journal line kind: {other:?}"),
                });
            }
        }
    }
    Ok(Recovery {
        header: fields,
        records,
        good_bytes,
        dropped_tail,
    })
}

fn decode(value: &Json, line: usize) -> Result<LineBody, RecoveryError> {
    let body = record::check(value).map_err(|message| RecoveryError::Corrupt { line, message })?;
    record::classify(body).map_err(|message| RecoveryError::Corrupt { line, message })
}

/// Truncates the journal to its recovered good prefix.
///
/// # Errors
/// Propagates filesystem errors.
pub fn truncate_to(path: &Path, good_bytes: u64) -> io::Result<()> {
    OpenOptions::new()
        .write(true)
        .open(path)?
        .set_len(good_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{header_body, record_body, stamp};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "h2priv_journal_{}_{}_{}.jsonl",
            std::process::id(),
            tag,
            n
        ))
    }

    fn header_line() -> String {
        stamp(&header_body(&[
            ("experiment".to_string(), Json::Str("x".to_string())),
            ("cells".to_string(), Json::UInt(4)),
        ]))
    }

    fn payload(n: u64) -> Json {
        Json::Obj(vec![("retrans".to_string(), Json::UInt(n))])
    }

    fn write_journal(path: &Path, cells: u64) {
        let mut journal = Journal::create(path, &header_line()).unwrap();
        for c in 0..cells {
            journal
                .append_line(&stamp(&record_body(c, c / 2, c % 2, payload(c))))
                .unwrap();
        }
    }

    #[test]
    fn roundtrip_clean_journal() {
        let path = temp_path("clean");
        write_journal(&path, 3);
        let rec = recover(&path).unwrap();
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.records[2].cell, 2);
        assert_eq!(rec.records[2].payload, payload(2));
        assert_eq!(rec.header.get("cells").and_then(Json::as_u64), Some(4));
        assert_eq!(rec.dropped_tail, 0);
        assert_eq!(
            rec.good_bytes,
            std::fs::metadata(&path).unwrap().len(),
            "good prefix covers the whole clean file"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_is_dropped_and_truncatable() {
        let path = temp_path("tail");
        write_journal(&path, 2);
        let good = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append of cell 2.
        let partial = stamp(&record_body(2, 1, 0, payload(2)));
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&partial.as_bytes()[..partial.len() / 2])
            .unwrap();
        drop(f);

        let rec = recover(&path).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.good_bytes, good);
        assert!(rec.dropped_tail > 0);

        truncate_to(&path, rec.good_bytes).unwrap();
        let rec2 = recover(&path).unwrap();
        assert_eq!(rec2.records.len(), 2);
        assert_eq!(rec2.dropped_tail, 0);

        // Appending after recovery yields the same bytes as an
        // uninterrupted run.
        let mut journal = Journal::open_append(&path).unwrap();
        journal
            .append_line(&stamp(&record_body(2, 1, 0, payload(2))))
            .unwrap();
        let resumed = std::fs::read(&path).unwrap();
        let clean = temp_path("tail_ref");
        write_journal(&clean, 3);
        assert_eq!(resumed, std::fs::read(&clean).unwrap());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&clean).unwrap();
    }

    #[test]
    fn corrupt_complete_line_is_fatal() {
        let path = temp_path("corrupt");
        write_journal(&path, 2);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the second record's payload.
        let target = bytes.len() - 10;
        bytes[target] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = recover(&path).unwrap_err();
        assert!(matches!(err, RecoveryError::Corrupt { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_sequence_cell_is_fatal() {
        let path = temp_path("seq");
        let mut journal = Journal::create(&path, &header_line()).unwrap();
        journal
            .append_line(&stamp(&record_body(1, 0, 1, payload(1))))
            .unwrap();
        let err = recover(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("out of sequence"), "{msg}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_header_is_fatal() {
        let path = temp_path("nohdr");
        std::fs::write(
            &path,
            format!("{}\n", stamp(&record_body(0, 0, 0, payload(0)))),
        )
        .unwrap();
        let err = recover(&path).unwrap_err();
        assert!(err.to_string().contains("not a header"), "{err}");
        std::fs::remove_file(&path).unwrap();

        let empty = temp_path("empty");
        std::fs::write(&empty, b"").unwrap();
        let err = recover(&empty).unwrap_err();
        assert!(err.to_string().contains("no header"), "{err}");
        std::fs::remove_file(&empty).unwrap();
    }
}
