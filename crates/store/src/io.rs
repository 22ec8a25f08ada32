//! The storage I/O boundary: every byte the store reads or writes goes
//! through the [`Io`] trait, so the whole durability stack can be driven
//! by a deterministic fault injector (`iis_adversary::store::FaultyIo`)
//! as easily as by the real filesystem.
//!
//! Two implementations live here:
//!
//! - [`FsIo`] — the real filesystem, used by [`crate::Store::open`];
//! - [`MemIo`] — an in-memory filesystem with explicit flush tracking and
//!   a [`MemIo::crash`] operation that models what a process or machine
//!   crash leaves behind (flushed bytes survive, an arbitrary prefix of
//!   the unflushed tail may or may not).
//!
//! The trait is deliberately segment-shaped (append/flush/truncate/rename
//! over whole files) rather than POSIX-shaped: these are exactly the
//! operations whose partial failures the store must survive, and nothing
//! else.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// The store's backend: segment-file operations, each of which may fail —
/// partially, loudly, or (for an injected bit flip) silently.
///
/// Implementations must be `Send` so a store can live behind the solve
/// service's shared cache lock.
pub trait Io: Send {
    /// Creates `dir` and any missing ancestors.
    fn create_dir_all(&mut self, dir: &Path) -> std::io::Result<()>;
    /// The files directly inside `dir` (no recursion, no directories).
    fn list(&mut self, dir: &Path) -> std::io::Result<Vec<PathBuf>>;
    /// The current length of `path` in bytes.
    fn len(&mut self, path: &Path) -> std::io::Result<u64>;
    /// The full contents of `path`.
    fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Exactly `len` bytes of `path` starting at `offset`.
    fn read_range(&mut self, path: &Path, offset: u64, len: u64) -> std::io::Result<Vec<u8>>;
    /// Creates `path` as an empty file (truncating any existing file).
    fn create(&mut self, path: &Path) -> std::io::Result<()>;
    /// Appends `bytes` to `path`. A failed append may still have persisted
    /// a prefix of `bytes` — the caller owns cleaning up the tail.
    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
    /// Flushes buffered appends to `path`. Only flushed bytes are
    /// guaranteed to survive a crash.
    fn flush(&mut self, path: &Path) -> std::io::Result<()>;
    /// Truncates `path` to `len` bytes.
    fn truncate(&mut self, path: &Path, len: u64) -> std::io::Result<()>;
    /// Renames `from` to `to` (the quarantine move).
    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()>;
    /// Deletes `path` (clearing a quarantined segment after repair).
    fn remove(&mut self, path: &Path) -> std::io::Result<()>;
}

/// The real filesystem. Keeps one cached append handle (the live segment)
/// so a put does not reopen the file every time.
#[derive(Default)]
pub struct FsIo {
    /// `(path, handle)` of the most recently appended-to file.
    live: Option<(PathBuf, File)>,
}

impl FsIo {
    /// A fresh backend with no cached handle.
    pub fn new() -> FsIo {
        FsIo::default()
    }

    fn append_handle(&mut self, path: &Path) -> std::io::Result<&mut File> {
        let stale = self.live.as_ref().is_none_or(|(p, _)| p != path);
        if stale {
            let f = OpenOptions::new().create(true).append(true).open(path)?;
            self.live = Some((path.to_path_buf(), f));
        }
        Ok(&mut self.live.as_mut().expect("cached above").1)
    }

    fn drop_handle(&mut self, path: &Path) {
        if self.live.as_ref().is_some_and(|(p, _)| p == path) {
            self.live = None;
        }
    }
}

impl Io for FsIo {
    fn create_dir_all(&mut self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list(&mut self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_file() {
                out.push(path);
            }
        }
        Ok(out)
    }

    fn len(&mut self, path: &Path) -> std::io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn read_range(&mut self, path: &Path, offset: u64, len: u64) -> std::io::Result<Vec<u8>> {
        let mut f = File::open(path)?;
        f.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len as usize];
        f.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn create(&mut self, path: &Path) -> std::io::Result<()> {
        self.drop_handle(path);
        File::create(path)?;
        Ok(())
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.append_handle(path)?.write_all(bytes)
    }

    fn flush(&mut self, path: &Path) -> std::io::Result<()> {
        self.append_handle(path)?.flush()
    }

    fn truncate(&mut self, path: &Path, len: u64) -> std::io::Result<()> {
        self.drop_handle(path);
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(len)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.drop_handle(from);
        std::fs::rename(from, to)
    }

    fn remove(&mut self, path: &Path) -> std::io::Result<()> {
        self.drop_handle(path);
        std::fs::remove_file(path)
    }
}

/// One in-memory file: its bytes and how many of them are flushed.
#[derive(Clone, Default)]
struct MemFile {
    data: Vec<u8>,
    flushed: usize,
}

#[derive(Default)]
struct MemState {
    files: BTreeMap<PathBuf, MemFile>,
    dirs: std::collections::BTreeSet<PathBuf>,
}

/// An in-memory filesystem with flush tracking.
///
/// Clones share the same state (the handle is an `Arc`), so a "process
/// restart" is modeled by opening a second store over a clone of the same
/// `MemIo`. [`MemIo::crash`] models power loss: flushed bytes survive,
/// and the caller decides (deterministically) how much of each unflushed
/// tail does.
#[derive(Clone, Default)]
pub struct MemIo {
    state: Arc<Mutex<MemState>>,
}

fn not_found(path: &Path) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::NotFound,
        format!("no such file: {}", path.display()),
    )
}

impl MemIo {
    /// An empty in-memory filesystem.
    pub fn new() -> MemIo {
        MemIo::default()
    }

    fn with<T>(&self, f: impl FnOnce(&mut MemState) -> T) -> T {
        f(&mut self.state.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Simulates a crash: for every file, the flushed prefix survives and
    /// `keep_of(path, unflushed_len)` bytes of the unflushed tail are
    /// retained (clamped to the tail's length). After the crash everything
    /// still present counts as flushed — it is "on disk" now.
    pub fn crash(&self, mut keep_of: impl FnMut(&Path, usize) -> usize) {
        self.with(|st| {
            for (path, file) in st.files.iter_mut() {
                let unflushed = file.data.len() - file.flushed;
                let keep = keep_of(path, unflushed).min(unflushed);
                file.data.truncate(file.flushed + keep);
                file.flushed = file.data.len();
            }
        });
    }
}

impl Io for MemIo {
    fn create_dir_all(&mut self, dir: &Path) -> std::io::Result<()> {
        self.with(|st| {
            st.dirs.insert(dir.to_path_buf());
        });
        Ok(())
    }

    fn list(&mut self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        Ok(self.with(|st| {
            st.files
                .keys()
                .filter(|p| p.parent() == Some(dir))
                .cloned()
                .collect()
        }))
    }

    fn len(&mut self, path: &Path) -> std::io::Result<u64> {
        self.with(|st| {
            st.files
                .get(path)
                .map(|f| f.data.len() as u64)
                .ok_or_else(|| not_found(path))
        })
    }

    fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.with(|st| {
            st.files
                .get(path)
                .map(|f| f.data.clone())
                .ok_or_else(|| not_found(path))
        })
    }

    fn read_range(&mut self, path: &Path, offset: u64, len: u64) -> std::io::Result<Vec<u8>> {
        self.with(|st| {
            let file = st.files.get(path).ok_or_else(|| not_found(path))?;
            let (start, end) = (offset as usize, (offset + len) as usize);
            if end > file.data.len() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "read past end of file",
                ));
            }
            Ok(file.data[start..end].to_vec())
        })
    }

    fn create(&mut self, path: &Path) -> std::io::Result<()> {
        self.with(|st| {
            st.files.insert(path.to_path_buf(), MemFile::default());
        });
        Ok(())
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.with(|st| {
            st.files
                .entry(path.to_path_buf())
                .or_default()
                .data
                .extend_from_slice(bytes);
        });
        Ok(())
    }

    fn flush(&mut self, path: &Path) -> std::io::Result<()> {
        self.with(|st| {
            let file = st.files.get_mut(path).ok_or_else(|| not_found(path))?;
            file.flushed = file.data.len();
            Ok(())
        })
    }

    fn truncate(&mut self, path: &Path, len: u64) -> std::io::Result<()> {
        self.with(|st| {
            let file = st.files.get_mut(path).ok_or_else(|| not_found(path))?;
            file.data.truncate(len as usize);
            file.flushed = file.flushed.min(file.data.len());
            Ok(())
        })
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.with(|st| {
            let file = st.files.remove(from).ok_or_else(|| not_found(from))?;
            st.files.insert(to.to_path_buf(), file);
            Ok(())
        })
    }

    fn remove(&mut self, path: &Path) -> std::io::Result<()> {
        self.with(|st| {
            st.files.remove(path).ok_or_else(|| not_found(path))?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memio_models_flush_and_crash() {
        let mut io = MemIo::new();
        let p = Path::new("/s/seg-00000.jsonl");
        io.create(p).unwrap();
        io.append(p, b"flushed\n").unwrap();
        io.flush(p).unwrap();
        io.append(p, b"unflushed tail").unwrap();
        assert_eq!(io.len(p).unwrap(), 22);
        // crash keeping 4 bytes of the unflushed tail
        io.crash(|_, _| 4);
        assert_eq!(io.read(p).unwrap(), b"flushed\nunfl");
        // post-crash content counts as flushed: a second crash drops nothing
        io.crash(|_, _| 0);
        assert_eq!(io.read(p).unwrap(), b"flushed\nunfl");
    }

    #[test]
    fn memio_clones_share_state_and_rename_moves() {
        let mut a = MemIo::new();
        let mut b = a.clone();
        a.append(Path::new("/d/x"), b"hello").unwrap();
        assert_eq!(b.read(Path::new("/d/x")).unwrap(), b"hello");
        b.rename(Path::new("/d/x"), Path::new("/d/q/x")).unwrap();
        assert!(a.read(Path::new("/d/x")).is_err());
        assert_eq!(a.read(Path::new("/d/q/x")).unwrap(), b"hello");
        assert_eq!(a.list(Path::new("/d")).unwrap(), Vec::<PathBuf>::new());
        assert_eq!(b.list(Path::new("/d/q")).unwrap().len(), 1);
    }

    #[test]
    fn memio_read_range_is_bounds_checked() {
        let mut io = MemIo::new();
        let p = Path::new("/f");
        io.append(p, b"0123456789").unwrap();
        assert_eq!(io.read_range(p, 2, 3).unwrap(), b"234");
        assert!(io.read_range(p, 8, 3).is_err());
        assert!(io.read_range(Path::new("/nope"), 0, 1).is_err());
    }

    #[test]
    fn fsio_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join(format!("iis-fsio-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut io = FsIo::new();
        io.create_dir_all(&dir).unwrap();
        let p = dir.join("seg-00000.jsonl");
        io.create(&p).unwrap();
        io.append(&p, b"one\n").unwrap();
        io.flush(&p).unwrap();
        io.append(&p, b"two\n").unwrap();
        io.flush(&p).unwrap();
        assert_eq!(io.len(&p).unwrap(), 8);
        assert_eq!(io.read(&p).unwrap(), b"one\ntwo\n");
        assert_eq!(io.read_range(&p, 4, 4).unwrap(), b"two\n");
        io.truncate(&p, 4).unwrap();
        assert_eq!(io.read(&p).unwrap(), b"one\n");
        let q = dir.join("quarantine");
        io.create_dir_all(&q).unwrap();
        io.rename(&p, &q.join("seg-00000.jsonl")).unwrap();
        assert_eq!(io.list(&dir).unwrap(), Vec::<PathBuf>::new());
        assert_eq!(io.list(&q).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
