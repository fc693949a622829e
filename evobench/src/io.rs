//! A [`JournalIo`] wrapper that counts and times every call it forwards.
//!
//! The journal's own observer counts appends and fsyncs but times
//! nothing, so the benchmark measures the I/O layer from outside: every
//! call goes to the wrapped implementation unchanged, and the wrapper adds
//! a call count, the nanoseconds spent inside the call, and the bytes
//! moved. The test at the bottom shows the wrapper is transparent.

use axiombase_core::journal::io::JournalIo;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// The [`JournalIo`] calls, in trait order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    CreateDirAll,
    Read,
    Write,
    Append,
    Truncate,
    Fsync,
    FsyncDir,
    Rename,
    Remove,
    List,
}

const CALLS: usize = 10;

/// Counters of one wrapper at one moment; subtract two with [`IoCounts::since`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    calls: [u64; CALLS],
    ns: [u64; CALLS],
    /// Bytes returned by `read`.
    pub bytes_read: u64,
    /// Bytes passed to `write` and `append`.
    pub bytes_written: u64,
}

impl IoCounts {
    /// Number of `c` calls.
    pub fn calls(&self, c: Call) -> u64 {
        self.calls[c as usize]
    }

    /// Nanoseconds spent inside `c` calls.
    pub fn ns(&self, c: Call) -> u64 {
        self.ns[c as usize]
    }

    /// Nanoseconds spent inside any call.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Add `other` into these counts.
    pub fn add(&mut self, other: &IoCounts) {
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        for i in 0..CALLS {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
        }
    }

    /// The counts accumulated since `earlier` was taken.
    pub fn since(&self, earlier: &IoCounts) -> IoCounts {
        let mut d = IoCounts {
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            ..IoCounts::default()
        };
        for i in 0..CALLS {
            d.calls[i] = self.calls[i] - earlier.calls[i];
            d.ns[i] = self.ns[i] - earlier.ns[i];
        }
        d
    }
}

/// Forwards every call to `inner`, counting and timing it.
#[derive(Debug)]
pub struct CountingIo {
    inner: Arc<dyn JournalIo>,
    calls: [AtomicU64; CALLS],
    ns: [AtomicU64; CALLS],
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl CountingIo {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn JournalIo>) -> Self {
        CountingIo {
            inner,
            calls: Default::default(),
            ns: Default::default(),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        }
    }

    /// The counters so far.
    pub fn counts(&self) -> IoCounts {
        IoCounts {
            calls: std::array::from_fn(|i| self.calls[i].load(Relaxed)),
            ns: std::array::from_fn(|i| self.ns[i].load(Relaxed)),
            bytes_read: self.bytes_read.load(Relaxed),
            bytes_written: self.bytes_written.load(Relaxed),
        }
    }

    fn timed<T>(&self, c: Call, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns[c as usize].fetch_add(ns, Relaxed);
        self.calls[c as usize].fetch_add(1, Relaxed);
        out
    }

    fn wrote(&self, data: &[u8]) {
        self.bytes_written.fetch_add(data.len() as u64, Relaxed);
    }
}

impl JournalIo for CountingIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.timed(Call::CreateDirAll, || self.inner.create_dir_all(dir))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let data = self.timed(Call::Read, || self.inner.read(path))?;
        self.bytes_read.fetch_add(data.len() as u64, Relaxed);
        Ok(data)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.wrote(data);
        self.timed(Call::Write, || self.inner.write(path, data))
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.wrote(data);
        self.timed(Call::Append, || self.inner.append(path, data))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.timed(Call::Truncate, || self.inner.truncate(path, len))
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.timed(Call::Fsync, || self.inner.fsync(path))
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.timed(Call::FsyncDir, || self.inner.fsync_dir(dir))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(Call::Rename, || self.inner.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.timed(Call::Remove, || self.inner.remove(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.timed(Call::List, || self.inner.list(dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axiombase_core::journal::io::MemIo;
    use axiombase_core::{
        EngineKind, JournalOptions, JournaledSchema, LatticeConfig, RecoveryMode, Schema,
    };
    use axiombase_workload::{generate_trace, LatticeGen, OpMix};

    const DIR: &str = "/transparency";

    fn write_journal(io: Arc<dyn JournalIo>, base: &Schema, ops: &[axiombase_core::RecordedOp]) {
        // A short cadence so the run covers checkpoint writes, renames and
        // prunes as well as appends.
        let opts = JournalOptions {
            checkpoint_every: 16,
        };
        let js = JournaledSchema::create(Path::new(DIR), io, base.clone(), opts).unwrap();
        for op in ops {
            js.apply(op).unwrap();
        }
    }

    fn files(io: &dyn JournalIo) -> Vec<(String, Vec<u8>)> {
        let dir = Path::new(DIR);
        let mut names = io.list(dir).unwrap();
        names.sort();
        names
            .into_iter()
            .map(|n| {
                let data = io.read(&dir.join(&n)).unwrap();
                (n, data)
            })
            .collect()
    }

    #[test]
    fn counting_io_is_transparent() {
        let base = LatticeGen {
            types: 60,
            seed: 42,
            ..LatticeGen::default()
        }
        .generate(LatticeConfig::ORION, EngineKind::Incremental)
        .schema;
        let (ops, _) = generate_trace(&base, 120, OpMix::BALANCED, 7);
        assert!(ops.len() > 40, "trace exercises several checkpoints");

        let bare = Arc::new(MemIo::new());
        write_journal(bare.clone(), &base, &ops);
        let under = Arc::new(MemIo::new());
        let counting = Arc::new(CountingIo::new(under.clone()));
        write_journal(counting.clone(), &base, &ops);

        let c = counting.counts();
        assert_eq!(c.calls(Call::Append), ops.len() as u64);
        assert!(c.calls(Call::Fsync) >= ops.len() as u64);
        assert!(c.calls(Call::Rename) > 1 && c.bytes_written > 0);

        let bare_files = files(bare.as_ref());
        assert!(bare_files.len() >= 2);
        assert_eq!(bare_files, files(under.as_ref()), "byte-identical journals");

        let mut owned = base.clone();
        owned.apply_trace(&ops).unwrap();
        for io in [bare as Arc<dyn JournalIo>, counting as Arc<dyn JournalIo>] {
            let (js, report) = JournaledSchema::open(
                Path::new(DIR),
                io,
                RecoveryMode::Strict,
                JournalOptions::default(),
            )
            .unwrap();
            assert_eq!(report.seq, ops.len() as u64);
            assert_eq!(js.snapshot().fingerprint(), owned.fingerprint());
        }
    }
}
