//! `iis-store` — the persistent, content-addressed result store behind
//! `iis serve` and `iis solve --store`.
//!
//! A [`Store`] is a directory of append-only JSONL **segment files**
//! (`seg-00000.jsonl`, `seg-00001.jsonl`, …) plus an in-memory index from
//! 64-bit content keys to byte ranges. Each record is one line:
//!
//! ```text
//! {"key": "b5c5fdcbdc1fc4c6", "sum": "91ab…", "value": "<record bytes, JSON-escaped>"}
//! ```
//!
//! `sum` is an FNV-1a checksum over the key and value, so a record
//! corrupted on disk (a flipped bit, a torn rewrite) is detected rather
//! than served. First-generation segments without the field are still
//! readable — they simply skip the checksum check (their witnesses are
//! still re-validated at the cache layer; see `iis_core::cache`).
//!
//! The design follows four rules, each carrying one acceptance property:
//!
//! - **First write wins.** [`Store::put`] on a present key is a no-op, so
//!   every [`Store::get`] for a key returns the same bytes for the life of
//!   the store — the bit-identity the solve service advertises.
//! - **Append-only with torn-tail recovery.** Writes only ever append and
//!   flush one complete line. On open, a trailing incomplete record (a
//!   crash mid-write) is cut off and the store continues from the last
//!   good record.
//! - **Corruption quarantines, never truncates good data.** A segment
//!   whose *middle* fails integrity (an invalid line or a checksum
//!   mismatch with more records after it) is moved whole to `quarantine/`
//!   for forensics; its surviving good records stay indexed and served
//!   from the quarantined file, and the store enters **degraded
//!   read-only** mode ([`Store::degraded`]) — reads keep answering,
//!   writes stop, and callers (the solve service) degrade to cold solves.
//!   This posture is sound because every record is recomputable: the
//!   answers are pure functions of the question (Proposition 3.1).
//! - **Warm across restarts.** The index is rebuilt from the segments on
//!   [`Store::open`], so a repeated request after a process restart is
//!   still a hit.
//!
//! All I/O goes through the [`io::Io`] trait ([`io::FsIo`] in
//! production), so the `iis fuzz --layer store` harness can drive the
//! whole stack with deterministic injected faults — short writes, failed
//! flushes, ENOSPC, bit flips, crash-at-op-k — and assert the recovery
//! invariants above.
//!
//! Segments roll over at [`Store::MAX_SEGMENT_BYTES`] so no single file
//! grows without bound; the live segment is the highest-numbered one.
//!
//! # Examples
//!
//! ```
//! let dir = std::env::temp_dir().join("iis-store-doc");
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut store = iis_store::Store::open(&dir).unwrap();
//! let key = iis_core::cache::fnv1a64(b"question");
//! store.put(key, "answer").unwrap();
//! drop(store);
//! // a reopened store still knows the answer — and always the same bytes
//! let mut store = iis_store::Store::open(&dir).unwrap();
//! assert_eq!(store.get(key).unwrap().as_deref(), Some("answer"));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod io;

use crate::io::{FsIo, Io};
use iis_core::cache::{fnv1a64, fnv1a64_from};
use iis_obs::json::{Reader, Token};
use iis_obs::{Json, ToJson};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Where a record's line lives on disk.
#[derive(Clone, Copy, Debug)]
struct Loc {
    /// Index into [`Store::files`] (live segments and quarantined ones).
    file: usize,
    /// Byte offset of the record's line start.
    offset: u64,
    /// Line length in bytes, including the trailing newline.
    len: u64,
}

/// Counters for what [`Store::open`] found and fixed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Complete, integrity-checked records indexed across all segments
    /// (including records recovered out of quarantined segments).
    pub records: u64,
    /// Bytes of torn tail truncated from a segment (0 on a clean open).
    pub torn_bytes: u64,
    /// Records dropped because a lower-numbered (earlier) record already
    /// held their key — first write still wins deterministically.
    pub duplicate_keys: u64,
    /// Complete lines that failed integrity: unparseable, or a checksum
    /// mismatch. Each one is a corrupted record that was *not* served.
    pub checksum_failures: u64,
    /// Segments moved to `quarantine/` because their middle failed
    /// integrity. Any quarantine puts the store in degraded read-only
    /// mode.
    pub quarantined_segments: u64,
    /// Good records indexed out of quarantined segments — data that the
    /// old truncate-at-first-error recovery would have silently dropped.
    pub recovered_records: u64,
}

/// What a [`Store::repair`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Surviving records re-encoded out of quarantined files into the
    /// fresh segment.
    pub repaired_records: u64,
    /// Quarantined files deleted.
    pub removed_files: u64,
}

/// A persistent content-addressed key-value store. See the crate docs.
pub struct Store {
    dir: PathBuf,
    io: Box<dyn Io>,
    /// Every file holding indexed records: live segments in segment order,
    /// then any quarantined segments.
    files: Vec<PathBuf>,
    /// Index into [`Store::files`] of the live (append) segment, if the
    /// store is writable.
    live: Option<usize>,
    /// Size of the live segment in bytes.
    live_len: u64,
    /// Segment number the next rollover file gets.
    next_segment: usize,
    index: HashMap<u64, Loc>,
    recovery: RecoveryStats,
    /// Raised on any integrity failure or unrepairable write error; a
    /// degraded store refuses writes and keeps serving reads.
    degraded: Arc<AtomicBool>,
}

/// Renders a key as the fixed-width hex used in record lines.
fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

fn parse_key_hex(s: &str) -> Option<u64> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
}

fn segment_path(dir: &Path, n: usize) -> PathBuf {
    dir.join(format!("seg-{n:05}.jsonl"))
}

fn segment_number(path: &Path) -> Option<usize> {
    path.file_name()?
        .to_str()?
        .strip_prefix("seg-")?
        .strip_suffix(".jsonl")?
        .parse()
        .ok()
}

/// A free name for `path` inside the quarantine directory: the segment's
/// own name, or `name.N` if an earlier quarantine already claimed it.
fn quarantine_target(io: &mut dyn Io, qdir: &Path, path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .expect("segment has a name")
        .to_string_lossy()
        .into_owned();
    let plain = qdir.join(&name);
    if io.len(&plain).is_err() {
        return plain;
    }
    for n in 1..1000 {
        let candidate = qdir.join(format!("{name}.{n}"));
        if io.len(&candidate).is_err() {
            return candidate;
        }
    }
    plain
}

/// The per-record checksum: FNV-1a over `key_hex ++ \0 ++ value`, fed
/// piece by piece.
fn record_sum(key: u64, value: &str) -> u64 {
    let state = fnv1a64_from(fnv1a64(key_hex(key).as_bytes()), &[0]);
    fnv1a64_from(state, value.as_bytes())
}

/// Encodes one record line (v2 format, checksummed), newline included.
fn encode_record(key: u64, value: &str) -> String {
    format!(
        "{}\n",
        Json::obj([
            ("key", Json::Str(key_hex(key))),
            ("sum", Json::Str(key_hex(record_sum(key, value)))),
            ("value", value.to_json()),
        ])
    )
}

/// Decodes one record line into `(key, value, integrity_ok)`, in one
/// pass with the JSON reader: the first `key`, `sum` and `value` members
/// count (later duplicates are read past), and the value string is
/// decoded once.
///
/// `None` means the line is not a record at all. `integrity_ok` is `false`
/// when a `sum` field is present and does not match — a v1 line without
/// the field passes (its content is still re-validated at the cache
/// layer).
fn decode_record(line: &str) -> Option<(u64, String, bool)> {
    let (mut key, mut sum, mut value) = (None, None, None);
    let mut r = Reader::new(line);
    r.object(|r, member| {
        let slot = match member.as_ref() {
            "key" => &mut key,
            "sum" => &mut sum,
            "value" => &mut value,
            _ => return r.skip(),
        };
        if slot.is_some() {
            return r.skip();
        }
        // a member that is not a string is kept as `None`
        *slot = Some(match r.peek()? {
            Token::String => Some(r.string()?),
            _ => r.skip().map(|()| None)?,
        });
        Ok(())
    })
    .and_then(|()| r.finish())
    .ok()?;
    let key = parse_key_hex(&key??)?;
    let value = value??.into_owned();
    let ok = match sum {
        None => true,
        Some(s) => parse_key_hex(&s?) == Some(record_sum(key, &value)),
    };
    Some((key, value, ok))
}

/// What scanning one segment found.
struct SegScan {
    /// Good records, in file order: `(key, offset, line_len)`.
    good: Vec<(u64, u64, u64)>,
    /// Complete lines that failed integrity.
    bad_lines: u64,
    /// Trailing bytes that do not form a complete line.
    torn_bytes: u64,
    /// Offset just past the last good record (valid when `bad_lines == 0`,
    /// where good records are a prefix of the file).
    good_len: u64,
}

/// The byte prefix every record line starts with — the resync marker
/// [`salvage_line`] splits corrupt lines on. Pinned by a unit test to the
/// exact [`encode_record`] output.
const RECORD_MARKER: &[u8] = b"{\"key\":";

/// Salvages intact records embedded in a corrupt line.
///
/// A single corrupted byte can destroy more than its own record: flipping
/// a line's `\n` terminator merges it with the *next* record into one
/// unparseable line. The neighbor's bytes are untouched, so recovery
/// resynchronizes on the record-start marker inside the bad line and keeps
/// every piece that independently passes its checksum — a flipped
/// delimiter then costs exactly the record that was corrupted, never the
/// flushed ones around it. False positives are ruled out by the checksum
/// (and by JSON string escaping: a value can never contain the raw
/// marker).
fn salvage_line(line: &[u8], line_offset: u64, scan: &mut SegScan) {
    let mut starts = Vec::new();
    let mut i = 0;
    while i + RECORD_MARKER.len() <= line.len() {
        if &line[i..i + RECORD_MARKER.len()] == RECORD_MARKER {
            starts.push(i);
            i += RECORD_MARKER.len();
        } else {
            i += 1;
        }
    }
    for (n, &start) in starts.iter().enumerate() {
        let end = starts.get(n + 1).copied().unwrap_or(line.len());
        if start == 0 && end == line.len() {
            continue; // the whole line — already failed as a unit
        }
        let piece = &line[start..end];
        if let Some((key, _, true)) = std::str::from_utf8(piece).ok().and_then(decode_record) {
            scan.good
                .push((key, line_offset + start as u64, piece.len() as u64));
        }
    }
}

/// Scans segment `bytes` line by line, classifying every record.
fn scan_segment(bytes: &[u8]) -> SegScan {
    let mut scan = SegScan {
        good: Vec::new(),
        bad_lines: 0,
        torn_bytes: 0,
        good_len: 0,
    };
    let mut offset = 0u64;
    while (offset as usize) < bytes.len() {
        let rest = &bytes[offset as usize..];
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            scan.torn_bytes = rest.len() as u64;
            break;
        };
        let len = (nl + 1) as u64;
        match std::str::from_utf8(&rest[..nl])
            .ok()
            .and_then(decode_record)
        {
            Some((key, _, true)) => {
                scan.good.push((key, offset, len));
                if scan.bad_lines == 0 {
                    scan.good_len = offset + len;
                }
            }
            _ => {
                scan.bad_lines += 1;
                salvage_line(&rest[..nl], offset, &mut scan);
            }
        }
        offset += len;
    }
    scan
}

impl Store {
    /// Segment rollover threshold: an append that would grow the live
    /// segment past this many bytes starts a new segment instead.
    pub const MAX_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

    /// Opens (or creates) the store rooted at `dir` on the real
    /// filesystem. See [`Store::open_with`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be created
    /// or a segment cannot be read.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Store> {
        Store::open_with(dir, Box::new(FsIo::new()))
    }

    /// Opens (or creates) the store rooted at `dir` over an arbitrary
    /// [`Io`] backend, rebuilding the index from every segment.
    ///
    /// Recovery policy, per segment:
    ///
    /// - a **torn tail** (trailing incomplete line, nothing bad before it)
    ///   is truncated away and the segment stays live;
    /// - **mid-segment corruption** (an invalid line or checksum mismatch)
    ///   moves the whole segment to `quarantine/`; its good records are
    ///   still indexed and served from there, and the store enters
    ///   degraded read-only mode.
    ///
    /// A *corrupt* segment is therefore never an error — the store always
    /// opens, and never serves a record that failed its checksum.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be created
    /// or a segment cannot be read at all.
    pub fn open_with(dir: impl AsRef<Path>, mut io: Box<dyn Io>) -> std::io::Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        // materialize the integrity counters so `/metrics` always carries
        // them, even on a store that never sees a fault
        iis_obs::metrics::Counter::handle("store.checksum_failures");
        iis_obs::metrics::Counter::handle("store.quarantined_segments");
        iis_obs::metrics::Counter::handle("store.recovered_records");
        io.create_dir_all(&dir)?;
        let qdir = dir.join("quarantine");
        // every file holding records, in write order: live segments and
        // previously-quarantined ones interleave by segment name, so
        // first-write-wins resolves identically across restarts
        let mut scan_list: Vec<(PathBuf, bool)> = io
            .list(&dir)?
            .into_iter()
            .filter(|p| segment_number(p).is_some())
            .map(|p| (p, false))
            .collect();
        if let Ok(quarantined) = io.list(&qdir) {
            scan_list.extend(quarantined.into_iter().map(|p| (p, true)));
        }
        scan_list.sort_by(|(a, _), (b, _)| a.file_name().cmp(&b.file_name()));
        let degraded = Arc::new(AtomicBool::new(false));
        let mut files: Vec<PathBuf> = Vec::new();
        let mut index = HashMap::new();
        let mut recovery = RecoveryStats::default();
        let mut live: Option<usize> = None;
        let mut live_len = 0u64;
        let mut next_segment = scan_list
            .iter()
            .filter_map(|(p, _)| segment_number(p))
            .max()
            .map_or(0, |n| n + 1);
        for (path, was_quarantined) in &scan_list {
            let bytes = io.read(path)?;
            let scan = scan_segment(&bytes);
            recovery.checksum_failures += scan.bad_lines;
            let corrupt = scan.bad_lines > 0;
            let file_path = if *was_quarantined {
                // damage found by an earlier open: keep serving its good
                // records, and stay read-only until an operator clears
                // quarantine/ — degradation must survive a restart
                recovery.quarantined_segments += 1;
                recovery.recovered_records += scan.good.len() as u64;
                degraded.store(true, Ordering::Release);
                path.clone()
            } else if corrupt {
                // quarantine the whole segment; its good records stay
                // indexed below, served from the quarantined path
                recovery.quarantined_segments += 1;
                recovery.recovered_records += scan.good.len() as u64;
                degraded.store(true, Ordering::Release);
                let target = quarantine_target(&mut *io, &qdir, path);
                if io.create_dir_all(&qdir).is_ok() && io.rename(path, &target).is_ok() {
                    target
                } else {
                    // the move itself failed: serve from where it lies;
                    // the store is read-only either way
                    path.clone()
                }
            } else {
                if scan.torn_bytes > 0 {
                    recovery.torn_bytes += scan.torn_bytes;
                    if io.truncate(path, scan.good_len).is_err() {
                        // cannot make the tail safe to append after:
                        // keep serving the good prefix, stop writing
                        degraded.store(true, Ordering::Release);
                    }
                }
                path.clone()
            };
            let file = files.len();
            files.push(file_path);
            for (key, offset, len) in scan.good {
                if let std::collections::hash_map::Entry::Vacant(slot) = index.entry(key) {
                    slot.insert(Loc { file, offset, len });
                    recovery.records += 1;
                } else {
                    recovery.duplicate_keys += 1;
                }
            }
            if !corrupt && !*was_quarantined {
                live = Some(file);
                live_len = bytes.len() as u64 - scan.torn_bytes;
            }
        }
        if degraded.load(Ordering::Acquire) {
            live = None;
        } else if live.is_none() {
            // no appendable segment exists (fresh dir): start a new one
            let path = segment_path(&dir, next_segment);
            io.create(&path)?;
            next_segment += 1;
            live = Some(files.len());
            files.push(path);
            live_len = 0;
        }
        iis_obs::metrics::add("store.records_indexed", recovery.records);
        if recovery.torn_bytes > 0 {
            iis_obs::metrics::add("store.torn_bytes_recovered", recovery.torn_bytes);
        }
        iis_obs::metrics::add("store.checksum_failures", recovery.checksum_failures);
        iis_obs::metrics::add("store.quarantined_segments", recovery.quarantined_segments);
        iis_obs::metrics::add("store.recovered_records", recovery.recovered_records);
        Ok(Store {
            dir,
            io,
            files,
            live,
            live_len,
            next_segment,
            index,
            recovery,
            degraded,
        })
    }

    /// The directory the store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of records indexed.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` iff no record is indexed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of files holding indexed records (live segments plus any
    /// quarantined ones).
    pub fn num_segments(&self) -> usize {
        self.files.len()
    }

    /// What the most recent [`Store::open`] found and fixed.
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// `true` iff the store has entered degraded read-only mode: an
    /// integrity failure was detected (at open or during a read) or a
    /// failed write could not be repaired. Reads keep answering; writes
    /// are refused so a suspect disk is never appended to.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// A shared handle on the degraded flag, for health endpoints that
    /// outlive the borrow on the store itself.
    pub fn degraded_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.degraded)
    }

    /// `true` iff `key` has a record.
    pub fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    /// Reads the record stored under `key` from disk, re-checking its
    /// checksum. A record whose bytes no longer verify is dropped from the
    /// index, counted in `store.checksum_failures`, and reported as
    /// absent — corrupted bytes are never returned to a caller — and the
    /// store degrades to read-only.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the segment cannot be read.
    pub fn get(&mut self, key: u64) -> std::io::Result<Option<String>> {
        let Some(loc) = self.index.get(&key).copied() else {
            iis_obs::metrics::add("store.misses", 1);
            return Ok(None);
        };
        let bytes = self
            .io
            .read_range(&self.files[loc.file], loc.offset, loc.len)?;
        let record = std::str::from_utf8(&bytes)
            .ok()
            .and_then(|text| decode_record(text.trim_end_matches('\n')));
        match record {
            Some((k, value, true)) if k == key => {
                static HITS: iis_obs::metrics::StaticCounter =
                    iis_obs::metrics::StaticCounter::new("store.hits");
                HITS.incr();
                Ok(Some(value))
            }
            _ => {
                // the bytes under an indexed record changed: treat the
                // medium as suspect — drop the record, stop writing
                self.index.remove(&key);
                self.degraded.store(true, Ordering::Release);
                iis_obs::metrics::add("store.checksum_failures", 1);
                Ok(None)
            }
        }
    }

    /// Appends a record for `key` unless one exists (**first write wins** —
    /// a present key is left untouched so earlier readers' bytes stay
    /// valid). Returns `true` iff a record was written. The line is flushed
    /// before returning, so a record acknowledged here survives a crash.
    ///
    /// On a degraded store this is a silent no-op (`Ok(false)`, counted in
    /// `store.puts_skipped_degraded`): callers keep their cold-solved
    /// answer and nothing touches the suspect disk.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error. A failed append may have left a
    /// partial line on disk; the store truncates back to the last good
    /// length, and if even that repair fails it degrades to read-only —
    /// either way the index never points at bytes that were not fully
    /// flushed.
    pub fn put(&mut self, key: u64, value: &str) -> std::io::Result<bool> {
        if self.index.contains_key(&key) {
            return Ok(false);
        }
        let live = match self.live {
            Some(live) if !self.degraded.load(Ordering::Acquire) => live,
            _ => {
                iis_obs::metrics::add("store.puts_skipped_degraded", 1);
                return Ok(false);
            }
        };
        let line = encode_record(key, value);
        let mut file = live;
        if self.live_len + line.len() as u64 > Self::MAX_SEGMENT_BYTES && self.live_len > 0 {
            let next = segment_path(&self.dir, self.next_segment);
            self.io.create(&next)?;
            self.next_segment += 1;
            file = self.files.len();
            self.files.push(next);
            self.live = Some(file);
            self.live_len = 0;
        }
        let path = self.files[file].clone();
        let wrote = self
            .io
            .append(&path, line.as_bytes())
            .and_then(|()| self.io.flush(&path));
        if let Err(e) = wrote {
            // the tail may hold a partial line; cut back to the last known
            // good length so later appends start on a line boundary
            if self.io.truncate(&path, self.live_len).is_err() {
                self.degraded.store(true, Ordering::Release);
                self.live = None;
            }
            return Err(e);
        }
        let loc = Loc {
            file,
            offset: self.live_len,
            len: line.len() as u64,
        };
        self.live_len += line.len() as u64;
        self.index.insert(key, loc);
        iis_obs::metrics::add("store.puts", 1);
        Ok(true)
    }

    /// Repairs a quarantine-degraded store in place: every surviving
    /// record that lives in a quarantined file is **re-encoded** into a
    /// fresh v2 (checksummed) segment — in sorted key order, so the
    /// repaired bytes are a deterministic function of the content — the
    /// quarantined files are deleted, and the sticky read-only degradation
    /// is lifted. Records already in healthy segments are left untouched.
    ///
    /// This is sound for the same reason quarantine itself is: a record is
    /// only carried over if its bytes still pass their checksum *at repair
    /// time*, so the fresh segment contains nothing the store would not
    /// have served anyway — and (first write wins) the served bytes for
    /// every key are unchanged by the move.
    ///
    /// Counted in `store.repaired_records`. Calling it on a healthy store
    /// with no quarantine is a no-op.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the store stays degraded (and
    /// consistent — the index only moves to the fresh segment once its
    /// records are flushed) if the rewrite cannot complete.
    pub fn repair(&mut self) -> std::io::Result<RepairStats> {
        let qdir = self.dir.join("quarantine");
        let quarantined: Vec<bool> = self.files.iter().map(|p| p.starts_with(&qdir)).collect();
        if !quarantined.contains(&true) && !self.degraded() {
            return Ok(RepairStats::default());
        }
        // collect the surviving records out of quarantine, re-verifying
        // each one's checksum from its current on-disk bytes
        let mut rescued: Vec<(u64, String)> = Vec::new();
        for (&key, loc) in &self.index {
            if !quarantined[loc.file] {
                continue;
            }
            let bytes = self
                .io
                .read_range(&self.files[loc.file], loc.offset, loc.len)?;
            if let Some((k, value, true)) = std::str::from_utf8(&bytes)
                .ok()
                .and_then(|text| decode_record(text.trim_end_matches('\n')))
            {
                if k == key {
                    rescued.push((key, value));
                }
            }
        }
        rescued.sort_by_key(|&(key, _)| key);
        // write them to a fresh segment (rolling over like put does), and
        // only repoint the index at offsets that are flushed
        let mut path = segment_path(&self.dir, self.next_segment);
        self.io.create(&path)?;
        self.next_segment += 1;
        let mut file = self.files.len();
        self.files.push(path.clone());
        let mut fresh: Vec<usize> = vec![file];
        let mut offset = 0u64;
        let mut moves: Vec<(u64, Loc)> = Vec::with_capacity(rescued.len());
        for (key, value) in &rescued {
            let line = encode_record(*key, value);
            if offset + line.len() as u64 > Self::MAX_SEGMENT_BYTES && offset > 0 {
                self.io.flush(&path)?;
                path = segment_path(&self.dir, self.next_segment);
                self.io.create(&path)?;
                self.next_segment += 1;
                file = self.files.len();
                self.files.push(path.clone());
                fresh.push(file);
                offset = 0;
            }
            self.io.append(&path, line.as_bytes())?;
            moves.push((
                *key,
                Loc {
                    file,
                    offset,
                    len: line.len() as u64,
                },
            ));
            offset += line.len() as u64;
        }
        self.io.flush(&path)?;
        for (key, loc) in moves {
            self.index.insert(key, loc);
        }
        // clear quarantine/ — everything worth keeping is re-encoded; the
        // rest is exactly the corrupt bytes quarantine existed to hold
        let mut removed = 0u64;
        for p in self.io.list(&qdir).unwrap_or_default() {
            self.io.remove(&p)?;
            removed += 1;
        }
        // drop the dangling quarantined entries from the file table
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(self.files.len());
        let mut kept: Vec<PathBuf> = Vec::new();
        for (i, p) in self.files.iter().enumerate() {
            if quarantined.get(i) == Some(&true) {
                remap.push(None);
            } else {
                remap.push(Some(kept.len()));
                kept.push(p.clone());
            }
        }
        for loc in self.index.values_mut() {
            loc.file = remap[loc.file].expect("no indexed record points into quarantine");
        }
        self.files = kept;
        // the store is writable again, appending to the repair segment
        self.live = Some(remap[*fresh.last().expect("at least one")].expect("fresh is kept"));
        self.live_len = offset;
        self.degraded.store(false, Ordering::Release);
        iis_obs::metrics::add("store.repaired_records", rescued.len() as u64);
        Ok(RepairStats {
            repaired_records: rescued.len() as u64,
            removed_files: removed,
        })
    }

    /// Flushes the live segment (a no-op on a degraded store). Every
    /// [`Store::put`] already flushes before acknowledging; this exists
    /// for drain paths that want an explicit final sync.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn flush(&mut self) -> std::io::Result<()> {
        match self.live {
            Some(live) => {
                let path = self.files[live].clone();
                self.io.flush(&path)
            }
            None => Ok(()),
        }
    }
}

/// The store is a [`iis_core::cache::SolveCache`], so
/// [`iis_core::cache::solve_up_to_cached`] can run straight against disk.
/// I/O errors degrade to cache misses / dropped writes — the solver must
/// keep answering when the disk does not.
impl iis_core::cache::SolveCache for Store {
    fn get(&mut self, key: u64) -> Option<String> {
        Store::get(self, key).ok().flatten()
    }

    fn put(&mut self, key: u64, value: &str) {
        let _ = Store::put(self, key, value);
    }

    fn flush(&mut self) {
        let _ = Store::flush(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemIo;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iis-store-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn mem_store(io: &MemIo) -> Store {
        Store::open_with("/store", Box::new(io.clone())).unwrap()
    }

    #[test]
    fn roundtrip_and_first_write_wins() {
        let dir = tmp("roundtrip");
        let mut s = Store::open(&dir).unwrap();
        assert!(s.is_empty());
        assert!(s.put(7, "alpha").unwrap());
        assert!(!s.put(7, "beta").unwrap(), "second write must be ignored");
        assert_eq!(s.get(7).unwrap().as_deref(), Some("alpha"));
        assert_eq!(s.get(8).unwrap(), None);
        assert!(s.contains(7) && !s.contains(8));
        assert_eq!(s.len(), 1);
        assert!(!s.degraded());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn values_with_newlines_and_quotes_survive() {
        let dir = tmp("escaping");
        let mut s = Store::open(&dir).unwrap();
        let value = "line one\nline \"two\"\n\tline three \\ end";
        s.put(1, value).unwrap();
        assert_eq!(s.get(1).unwrap().as_deref(), Some(value));
        drop(s);
        let mut s = Store::open(&dir).unwrap();
        assert_eq!(s.get(1).unwrap().as_deref(), Some(value));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_across_reopen() {
        let dir = tmp("reopen");
        let mut s = Store::open(&dir).unwrap();
        for k in 0..50u64 {
            s.put(k, &format!("value-{k}")).unwrap();
        }
        drop(s);
        let mut s = Store::open(&dir).unwrap();
        assert_eq!(s.len(), 50);
        assert_eq!(s.recovery().records, 50);
        assert_eq!(s.recovery().torn_bytes, 0);
        for k in 0..50u64 {
            assert_eq!(s.get(k).unwrap().unwrap(), format!("value-{k}"));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_the_store_stays_consistent() {
        let dir = tmp("torn");
        let mut s = Store::open(&dir).unwrap();
        s.put(1, "first").unwrap();
        s.put(2, "second").unwrap();
        drop(s);
        // crash simulation: chop one byte off the live segment, leaving a
        // complete first record and a torn second one
        let seg = segment_path(&dir, 0);
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 1]).unwrap();
        let mut s = Store::open(&dir).unwrap();
        assert_eq!(s.len(), 1, "torn record must be dropped");
        assert_eq!(s.get(1).unwrap().as_deref(), Some("first"));
        assert_eq!(s.get(2).unwrap(), None);
        assert!(s.recovery().torn_bytes > 0);
        assert!(!s.degraded(), "a torn tail alone must not degrade");
        // the segment is truncated on a line boundary: appending works and
        // a further reopen sees both records
        s.put(3, "third").unwrap();
        drop(s);
        let mut s = Store::open(&dir).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(3).unwrap().as_deref(), Some("third"));
        assert_eq!(s.recovery().torn_bytes, 0, "second open is clean");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_garbage_quarantines_but_recovers_good_records() {
        let dir = tmp("garbage");
        let mut s = Store::open(&dir).unwrap();
        s.put(1, "keep-before").unwrap();
        drop(s);
        // corruption in the middle: garbage line between two good records
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(b"this is not a record\n");
        bytes.extend_from_slice(encode_record(2, "keep-after").as_bytes());
        std::fs::write(&seg, &bytes).unwrap();
        let mut s = Store::open(&dir).unwrap();
        // both good records survive — the old recovery would have dropped
        // everything after the garbage line
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1).unwrap().as_deref(), Some("keep-before"));
        assert_eq!(s.get(2).unwrap().as_deref(), Some("keep-after"));
        let rec = s.recovery();
        assert_eq!(rec.checksum_failures, 1);
        assert_eq!(rec.quarantined_segments, 1);
        assert_eq!(rec.recovered_records, 2);
        // the segment was moved whole into quarantine/
        assert!(!seg.exists());
        assert!(dir.join("quarantine").join("seg-00000.jsonl").exists());
        // and the store is read-only now
        assert!(s.degraded());
        assert!(!s.put(3, "refused").unwrap());
        assert_eq!(s.get(3).unwrap(), None);
        // a restart reads quarantine/: still degraded, records still served
        drop(s);
        let mut s = Store::open(&dir).unwrap();
        assert!(s.degraded(), "degradation must survive a restart");
        assert_eq!(s.get(1).unwrap().as_deref(), Some("keep-before"));
        assert_eq!(s.get(2).unwrap().as_deref(), Some("keep-after"));
        assert!(!s.put(3, "still refused").unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_is_caught_by_the_checksum() {
        let dir = tmp("bitflip");
        let mut s = Store::open(&dir).unwrap();
        s.put(1, "pristine-value").unwrap();
        s.put(2, "other").unwrap();
        drop(s);
        // flip one bit inside the first record's value
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        let pos = bytes
            .windows(8)
            .position(|w| w == b"pristine")
            .expect("value is on disk");
        bytes[pos] ^= 0x20;
        std::fs::write(&seg, &bytes).unwrap();
        let mut s = Store::open(&dir).unwrap();
        // the flipped record is quarantined with the segment; the intact
        // one is recovered and served
        assert_eq!(s.get(1).unwrap(), None, "corrupt record must not serve");
        assert_eq!(s.get(2).unwrap().as_deref(), Some("other"));
        assert!(s.recovery().checksum_failures >= 1);
        assert!(s.degraded());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_lines_start_with_the_resync_marker() {
        assert!(
            encode_record(7, "anything")
                .as_bytes()
                .starts_with(RECORD_MARKER),
            "salvage resync marker out of sync with the record encoding"
        );
    }

    #[test]
    fn corrupted_newline_only_loses_the_flipped_record() {
        let dir = tmp("mergedline");
        let mut s = Store::open(&dir).unwrap();
        s.put(1, "first-record").unwrap();
        s.put(2, "second-record").unwrap();
        s.put(3, "third-record").unwrap();
        drop(s);
        // flip the newline between record 1 and record 2: lines merge
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        bytes[nl] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        let mut s = Store::open(&dir).unwrap();
        // record 1's framing is corrupt (trailing garbage byte) — gone;
        // records 2 and 3 are byte-intact and must both survive, record 2
        // salvaged from inside the merged bad line
        assert_eq!(s.get(1).unwrap(), None);
        assert_eq!(s.get(2).unwrap().as_deref(), Some("second-record"));
        assert_eq!(s.get(3).unwrap().as_deref(), Some("third-record"));
        assert!(s.degraded());
        assert_eq!(s.recovery().quarantined_segments, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_rescues_quarantined_records_and_lifts_degradation() {
        let dir = tmp("repair");
        let mut s = Store::open(&dir).unwrap();
        s.put(1, "keep-before").unwrap();
        drop(s);
        // corrupt the middle of the segment: a garbage line between two
        // good records, so the whole segment is quarantined on open
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(b"this is not a record\n");
        bytes.extend_from_slice(encode_record(2, "keep-after").as_bytes());
        std::fs::write(&seg, &bytes).unwrap();
        let mut s = Store::open(&dir).unwrap();
        assert!(s.degraded());
        assert_eq!(s.recovery().quarantined_segments, 1);
        let before: Vec<Option<String>> = (1..=2).map(|k| s.get(k).unwrap()).collect();

        let stats = s.repair().unwrap();
        assert_eq!(stats.repaired_records, 2, "{stats:?}");
        assert_eq!(stats.removed_files, 1, "{stats:?}");
        // zero record loss: the same keys answer with the same bytes
        assert!(!s.degraded(), "repair must lift the degradation");
        for (k, old) in (1..=2).zip(before) {
            assert_eq!(s.get(k).unwrap(), old, "record {k} changed in repair");
        }
        // the store is writable again
        assert!(s.put(3, "fresh-write").unwrap());
        assert_eq!(s.get(3).unwrap().as_deref(), Some("fresh-write"));
        // quarantine/ is empty and stays cleared across a restart: the
        // degradation was sticky, the repair must be too
        assert_eq!(
            std::fs::read_dir(dir.join("quarantine"))
                .map(|d| d.count())
                .unwrap_or(0),
            0
        );
        drop(s);
        let mut s = Store::open(&dir).unwrap();
        assert!(!s.degraded(), "repair must survive a restart");
        assert_eq!(s.recovery().quarantined_segments, 0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(1).unwrap().as_deref(), Some("keep-before"));
        assert_eq!(s.get(2).unwrap().as_deref(), Some("keep-after"));
        assert_eq!(s.get(3).unwrap().as_deref(), Some("fresh-write"));
        assert!(s.put(4, "still writable").unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_on_a_healthy_store_is_a_no_op() {
        let dir = tmp("repair-noop");
        let mut s = Store::open(&dir).unwrap();
        s.put(1, "value").unwrap();
        let stats = s.repair().unwrap();
        assert_eq!(stats, RepairStats::default());
        assert_eq!(s.num_segments(), 1, "no fresh segment on a no-op");
        assert_eq!(s.get(1).unwrap().as_deref(), Some("value"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_records_without_checksums_still_read() {
        let dir = tmp("v1compat");
        std::fs::create_dir_all(&dir).unwrap();
        // a first-generation line: key + value, no "sum"
        let line = format!(
            "{}\n",
            Json::obj([
                ("key", Json::Str(key_hex(9))),
                ("value", Json::Str("legacy".to_string())),
            ])
        );
        std::fs::write(segment_path(&dir, 0), line).unwrap();
        let mut s = Store::open(&dir).unwrap();
        assert_eq!(s.get(9).unwrap().as_deref(), Some("legacy"));
        assert!(!s.degraded());
        // new writes use the checksummed format alongside old records
        s.put(10, "modern").unwrap();
        drop(s);
        let mut s = Store::open(&dir).unwrap();
        assert_eq!(s.get(9).unwrap().as_deref(), Some("legacy"));
        assert_eq!(s.get(10).unwrap().as_deref(), Some("modern"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_over() {
        let dir = tmp("rollover");
        let mut s = Store::open(&dir).unwrap();
        // values sized so a handful of records exceed the threshold is not
        // practical at 4 MiB; drive rollover through many medium records
        let value = "x".repeat(128 * 1024);
        for k in 0..40u64 {
            s.put(k, &value).unwrap();
        }
        assert!(s.num_segments() > 1, "expected a rollover");
        drop(s);
        let mut s = Store::open(&dir).unwrap();
        assert_eq!(s.len(), 40);
        for k in 0..40u64 {
            assert_eq!(s.get(k).unwrap().unwrap().len(), value.len());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memio_backend_matches_disk_semantics() {
        let io = MemIo::new();
        let mut s = mem_store(&io);
        s.put(1, "one").unwrap();
        s.put(2, "two").unwrap();
        drop(s);
        let mut s = mem_store(&io);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1).unwrap().as_deref(), Some("one"));
        assert_eq!(s.get(2).unwrap().as_deref(), Some("two"));
    }

    #[test]
    fn unflushed_tail_lost_in_a_crash_is_recovered_as_torn() {
        let mut io = MemIo::new();
        let mut s = mem_store(&io);
        s.put(1, "durable").unwrap();
        drop(s);
        // simulate an unflushed partial append (a crash mid-put would
        // leave exactly this)
        use crate::io::Io as _;
        io.append(Path::new("/store/seg-00000.jsonl"), b"{\"key\": \"00")
            .unwrap();
        io.crash(|_, unflushed| unflushed / 2);
        let mut s = mem_store(&io);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(1).unwrap().as_deref(), Some("durable"));
        assert!(s.recovery().torn_bytes > 0);
        assert!(!s.degraded());
    }

    #[test]
    fn external_mutation_under_an_indexed_record_degrades_on_read() {
        let mut io = MemIo::new();
        let mut s = mem_store(&io);
        s.put(1, "value-one").unwrap();
        // corrupt the live bytes *after* open, under the running index
        use crate::io::Io as _;
        let path = Path::new("/store/seg-00000.jsonl");
        let mut bytes = io.read(path).unwrap();
        let n = bytes.len();
        bytes[n - 5] ^= 0x01;
        io.truncate(path, 0).unwrap();
        io.append(path, &bytes).unwrap();
        assert_eq!(s.get(1).unwrap(), None, "corrupt bytes must not serve");
        assert!(s.degraded());
        assert!(!s.put(2, "refused").unwrap());
    }

    #[test]
    fn solve_cache_impl_serves_the_core_entry_point() {
        use iis_core::cache::solve_up_to_cached;
        use iis_core::solvability::SolveOptions;
        use iis_tasks::library::approximate_agreement;
        let dir = tmp("solvecache");
        let task = approximate_agreement(1, 3);
        let cold_bytes;
        {
            let mut store = Store::open(&dir).unwrap();
            let cold = solve_up_to_cached(&task, 2, &SolveOptions::new(), &mut store);
            assert!(!cold.hit);
            cold_bytes = store.get(cold.key).unwrap().expect("record persisted");
        }
        // a different process lifetime, a different thread count: same bytes
        let mut store = Store::open(&dir).unwrap();
        let warm = solve_up_to_cached(&task, 2, &SolveOptions::new().jobs(4), &mut store);
        assert!(warm.hit, "reopened store must hit");
        assert_eq!(
            iis_core::cache::report_to_json(&warm.report).to_string(),
            cold_bytes
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The line decoder this crate used before lines were read by
    /// `json::Reader`: a parsed tree, a copy of the value and a preimage
    /// copy for the checksum — kept as the oracle of the differential
    /// below.
    fn tree_decode(line: &str) -> Option<(u64, String, bool)> {
        let v = Json::parse(line).ok()?;
        let key = parse_key_hex(v.get("key")?.as_str()?)?;
        let value = v.get("value")?.as_str()?.to_string();
        let ok = match v.get("sum") {
            None => true,
            Some(s) => {
                let mut preimage = key_hex(key).into_bytes();
                preimage.push(0);
                preimage.extend_from_slice(value.as_bytes());
                parse_key_hex(s.as_str()?) == Some(fnv1a64(&preimage))
            }
        };
        Some((key, value, ok))
    }

    #[test]
    fn the_reader_decodes_exactly_the_lines_the_tree_decoded() {
        let mut rng = iis_obs::Rng::seed_from_u64(0x5eed_0029);
        let values = [
            "",
            "answer",
            r#"{"results":[[0,true]],"task":"t","witness":{"b":0,"map":[[0,1]]}}"#,
            "line\nbreak \"quoted\" \\ tab\t ε \u{1}",
        ];
        let mut lines: Vec<String> = Vec::new();
        for (i, value) in values.iter().enumerate() {
            let key = 0x0123_4567_89ab_cdef_u64.wrapping_mul(i as u64 + 1);
            let v2 = encode_record(key, value);
            let v2 = v2.trim_end_matches('\n');
            let (k, s, v) = (
                Json::Str(key_hex(key)),
                Json::Str(key_hex(record_sum(key, value))),
                Json::Str(value.to_string()),
            );
            let other = Json::Str("ffffffffffffffff".to_string());
            let members = |m: &[(&'static str, &Json)]| {
                Json::obj(m.iter().map(|(n, j)| (*n, (*j).clone()))).to_string()
            };
            lines.extend([
                v2.to_string(),
                // v1: no sum; members reordered; first occurrence wins
                members(&[("key", &k), ("value", &v)]),
                members(&[("value", &v), ("sum", &s), ("key", &k)]),
                members(&[("key", &k), ("sum", &s), ("value", &v), ("value", &other)]),
                members(&[("key", &k), ("sum", &other), ("sum", &s), ("value", &v)]),
                members(&[("key", &other), ("key", &k), ("sum", &s), ("value", &v)]),
                // whitespace and escapes the writer does not use
                Json::parse(v2).unwrap().to_string_pretty(),
                v2.replacen("\"key\"", "\"k\\u0065y\"", 1),
                // a sum that is not a string, not hex, or not 16 digits
                members(&[("key", &k), ("sum", &Json::Num(5.0)), ("value", &v)]),
                members(&[("key", &k), ("sum", &Json::Null), ("value", &v)]),
                v2.replacen("\"sum\":\"", "\"sum\":\"zz", 1),
                v2.replacen("\"sum\":\"", "\"sum\":\"+", 1),
                v2.replacen("\"sum\":\"", "\"sum\":\"0", 1),
                v2.to_uppercase(),
                // a key or value that is not a string, extra members
                members(&[("key", &Json::Num(1.0)), ("value", &v)]),
                members(&[("key", &k), ("value", &Json::Arr(vec![]))]),
                members(&[("key", &k), ("extra", &other), ("sum", &s), ("value", &v)]),
                // trailing bytes, not an object
                format!("{v2} "),
                format!("{v2}x"),
                format!("{v2}{v2}"),
                format!("[{v2}]"),
            ]);
        }
        // salvage pieces: a flipped newline merges two records
        let merged = format!("{}{}", lines[0], lines[1]);
        let cut = lines[0].len();
        lines.extend([
            merged[..cut].to_string(),
            merged[cut..].to_string(),
            merged.clone(),
        ]);
        // random edits: a cut, a dropped byte, an inserted byte
        for _ in 0..1_500 {
            let base = rng.choose(&lines[..]).unwrap().clone();
            let mut bytes = base.into_bytes();
            let at = rng.random_range(0..bytes.len() + 1);
            match rng.random_range(0u32..3) {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, *rng.choose(b"{}[]:,\"\\ 0aF+-.ek").unwrap()),
            }
            if let Ok(line) = String::from_utf8(bytes) {
                lines.push(line);
            }
        }
        let mut decoded = [0usize; 3];
        for line in &lines {
            let got = decode_record(line);
            assert_eq!(got, tree_decode(line), "{line}");
            decoded[match got {
                None => 0,
                Some((_, _, false)) => 1,
                Some((_, _, true)) => 2,
            }] += 1;
        }
        // every outcome is in the corpus: refused, checksum failed, good
        assert!(decoded.iter().all(|&n| n >= 10), "{decoded:?}");
    }
}
