//! [`SimDisk`]: an in-memory [`WalDir`] that models a crash.
//!
//! Every file tracks its *synced* prefix (survived fsync) separately
//! from *pending* bytes (appended but not yet fsynced — the OS page
//! cache). A disk can be **armed** to kill the simulated process after
//! a byte or sync budget: the operation that crosses the budget fails
//! with a `"simulated crash"` I/O error, a partial prefix of the write
//! may land in the page cache, and every later operation on the same
//! disk fails too — exactly the view the dying process has.
//!
//! After the "crash", tests rebuild from one of two survivor views:
//!
//! * [`SimDisk::strict_view`] — only fsynced bytes survived (the
//!   adversarial disk: power was cut and the page cache evaporated);
//! * [`SimDisk::crash_view`] — fsynced bytes plus a *random* prefix of
//!   each file's pending bytes survived (a kinder kernel flushed some
//!   of the cache, possibly tearing a record mid-frame).
//!
//! Recovery must produce a valid state from **either** view; the strict
//! view additionally pins the exact floor of what must have survived.
//!
//! Directory metadata (create/rename/remove) is modeled as atomic and
//! immediately durable — the WAL already orders `sync_dir` after every
//! metadata change, and single-sector entry updates don't tear on real
//! filesystems; the interesting torn state is file *data*, which is
//! what the budgets target.

use cqu_common::lock;
use cqu_query::generator::Lcg;
use cqu_wal::{WalDir, WalFile};
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};

#[derive(Default, Clone)]
struct SimFile {
    synced: Vec<u8>,
    pending: Vec<u8>,
}

#[derive(Default)]
struct Inner {
    files: BTreeMap<String, SimFile>,
    /// Appended bytes remaining before the crash fires.
    byte_budget: Option<u64>,
    /// Syncs (file or directory) remaining; the sync that would bring
    /// this to zero fails *before* flushing.
    sync_budget: Option<u64>,
    crashed: bool,
}

fn crash_err() -> io::Error {
    io::Error::other("simulated crash")
}

impl Inner {
    fn check_alive(&self) -> io::Result<()> {
        if self.crashed {
            Err(crash_err())
        } else {
            Ok(())
        }
    }

    /// Charges `n` appended bytes; returns how many land in the page
    /// cache (all of them, unless this write crosses the budget).
    fn charge_bytes(&mut self, n: usize) -> io::Result<usize> {
        match &mut self.byte_budget {
            Some(budget) if (*budget as usize) < n => {
                let landed = *budget as usize;
                *budget = 0;
                self.crashed = true;
                Ok(landed) // caller stores the prefix, then errors
            }
            Some(budget) => {
                *budget -= n as u64;
                Ok(n)
            }
            None => Ok(n),
        }
    }

    fn charge_sync(&mut self) -> io::Result<()> {
        if let Some(budget) = &mut self.sync_budget {
            if *budget == 0 {
                self.crashed = true;
                return Err(crash_err());
            }
            *budget -= 1;
        }
        Ok(())
    }
}

/// A cloneable in-memory crash-simulating [`WalDir`]. Clones share
/// state: hand one clone to the WAL, keep another to arm budgets and
/// cut survivor views.
#[derive(Clone, Default)]
pub struct SimDisk {
    inner: Arc<Mutex<Inner>>,
}

impl SimDisk {
    /// A fresh, unarmed, empty disk.
    pub fn new() -> SimDisk {
        SimDisk::default()
    }

    /// Arms a byte budget: the append that would exceed `n` more bytes
    /// crashes the disk, leaving a partial prefix in the page cache.
    pub fn arm_bytes(&self, n: u64) {
        lock(&self.inner).byte_budget = Some(n);
    }

    /// Arms a sync budget: after `n` more successful syncs, the next
    /// one fails before flushing and crashes the disk.
    pub fn arm_syncs(&self, n: u64) {
        lock(&self.inner).sync_budget = Some(n);
    }

    /// Whether an armed budget has fired.
    pub fn crashed(&self) -> bool {
        lock(&self.inner).crashed
    }

    /// The adversarial survivor: only fsynced bytes. Returned disk is
    /// unarmed and fully synced.
    pub fn strict_view(&self) -> SimDisk {
        let inner = lock(&self.inner);
        let disk = SimDisk::new();
        {
            let mut v = lock(&disk.inner);
            for (name, f) in &inner.files {
                v.files.insert(
                    name.clone(),
                    SimFile {
                        synced: f.synced.clone(),
                        pending: Vec::new(),
                    },
                );
            }
        }
        disk
    }

    /// A survivor where each file keeps its synced bytes plus an
    /// `rng`-chosen prefix of its pending bytes — the torn-tail case.
    pub fn crash_view(&self, rng: &mut Lcg) -> SimDisk {
        let inner = lock(&self.inner);
        let disk = SimDisk::new();
        {
            let mut v = lock(&disk.inner);
            for (name, f) in &inner.files {
                let keep = rng.below(f.pending.len() + 1);
                let mut synced = f.synced.clone();
                synced.extend_from_slice(&f.pending[..keep]);
                v.files.insert(
                    name.clone(),
                    SimFile {
                        synced,
                        pending: Vec::new(),
                    },
                );
            }
        }
        disk
    }

    /// Plants a file with fully-synced `bytes` — for hand-crafting
    /// stale-segment and corruption fixtures.
    pub fn put_file(&self, name: &str, bytes: &[u8]) {
        lock(&self.inner).files.insert(
            name.to_string(),
            SimFile {
                synced: bytes.to_vec(),
                pending: Vec::new(),
            },
        );
    }

    /// Full contents (synced + pending) of `name`, if present.
    pub fn file(&self, name: &str) -> Option<Vec<u8>> {
        let inner = lock(&self.inner);
        inner.files.get(name).map(|f| {
            let mut all = f.synced.clone();
            all.extend_from_slice(&f.pending);
            all
        })
    }

    /// File names currently present.
    pub fn names(&self) -> Vec<String> {
        lock(&self.inner).files.keys().cloned().collect()
    }
}

struct SimHandle {
    name: String,
    inner: Arc<Mutex<Inner>>,
}

impl WalFile for SimHandle {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        inner.check_alive()?;
        let landed = inner.charge_bytes(buf.len())?;
        let crashed = inner.crashed;
        let file = inner
            .files
            .get_mut(&self.name)
            .ok_or_else(|| io::Error::other("file removed under open handle"))?;
        file.pending.extend_from_slice(&buf[..landed]);
        if crashed {
            return Err(crash_err());
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        inner.check_alive()?;
        inner.charge_sync()?;
        let file = inner
            .files
            .get_mut(&self.name)
            .ok_or_else(|| io::Error::other("file removed under open handle"))?;
        let pending = std::mem::take(&mut file.pending);
        file.synced.extend_from_slice(&pending);
        Ok(())
    }
}

impl WalDir for SimDisk {
    fn create(&self, name: &str) -> io::Result<Box<dyn WalFile>> {
        let mut inner = lock(&self.inner);
        inner.check_alive()?;
        inner.files.insert(name.to_string(), SimFile::default());
        Ok(Box::new(SimHandle {
            name: name.to_string(),
            inner: Arc::clone(&self.inner),
        }))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let inner = lock(&self.inner);
        inner.check_alive()?;
        let file = inner
            .files
            .get(name)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))?;
        let mut all = file.synced.clone();
        all.extend_from_slice(&file.pending);
        Ok(all)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let inner = lock(&self.inner);
        inner.check_alive()?;
        Ok(inner.files.keys().cloned().collect())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        inner.check_alive()?;
        inner
            .files
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        inner.check_alive()?;
        let file = inner
            .files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, from.to_string()))?;
        inner.files.insert(to.to_string(), file);
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        inner.check_alive()?;
        let file = inner
            .files
            .get_mut(name)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))?;
        let mut all = std::mem::take(&mut file.synced);
        all.extend_from_slice(&std::mem::take(&mut file.pending));
        all.truncate(len as usize);
        file.synced = all; // FsDir::truncate syncs after set_len
        Ok(())
    }

    fn sync_dir(&self) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        inner.check_alive()?;
        inner.charge_sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_budget_tears_a_write() {
        let disk = SimDisk::new();
        let mut f = disk.create("a").unwrap();
        f.append(b"hello").unwrap();
        f.sync().unwrap();
        disk.arm_bytes(3);
        assert!(f.append(b"worlds").is_err());
        assert!(disk.crashed());
        assert!(f.append(b"x").is_err(), "disk stays dead");
        // Strict survivor: only the synced prefix.
        assert_eq!(disk.strict_view().read("a").unwrap(), b"hello");
        // Crash survivor: synced + some prefix of the 3 landed bytes.
        let mut rng = Lcg::new(7);
        let seen = disk.crash_view(&mut rng).read("a").unwrap();
        assert!(seen.len() >= 5 && seen.len() <= 8);
        assert_eq!(&seen[..5], b"hello");
        assert_eq!(&seen[5..], &b"wor"[..seen.len() - 5]);
    }

    #[test]
    fn sync_budget_kills_the_fsync() {
        let disk = SimDisk::new();
        let mut f = disk.create("a").unwrap();
        f.append(b"one").unwrap();
        f.sync().unwrap();
        disk.arm_syncs(0);
        f.append(b"two").unwrap();
        assert!(f.sync().is_err());
        assert!(disk.crashed());
        assert_eq!(disk.strict_view().read("a").unwrap(), b"one");
    }

    #[test]
    fn metadata_ops_are_atomic() {
        let disk = SimDisk::new();
        disk.put_file("ckpt.tmp", b"body");
        disk.rename("ckpt.tmp", "ckpt-1.ck").unwrap();
        assert_eq!(disk.read("ckpt-1.ck").unwrap(), b"body");
        assert!(disk.read("ckpt.tmp").is_err());
        disk.remove("ckpt-1.ck").unwrap();
        assert!(disk.names().is_empty());
    }
}
