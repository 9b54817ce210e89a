//! The storage substrate: a striped parallel file system in virtual time.
//!
//! Files are striped round-robin over a set of I/O nodes; each I/O node is
//! a queueing resource (one disk, one service queue), so concurrent
//! accesses to different stripes proceed in parallel while accesses to the
//! same I/O node serialize — the behaviour that makes collective I/O
//! worthwhile.

use std::rc::Rc;

use qsim::{Dur, FastMap, Local, Time};

/// File-system shape and timing.
#[derive(Clone, Debug)]
pub struct PfsConfig {
    /// Number of I/O nodes the stripes rotate over.
    pub io_nodes: usize,
    /// Stripe unit in bytes.
    pub stripe: usize,
    /// Per-I/O-node disk bandwidth, bytes per microsecond (100 = 100 MB/s,
    /// a period-appropriate SCSI array).
    pub disk_bytes_per_us: u64,
    /// Per-request service latency (seek + controller + network to the
    /// I/O node).
    pub request_latency: Dur,
}

impl Default for PfsConfig {
    fn default() -> Self {
        PfsConfig {
            io_nodes: 4,
            stripe: 64 << 10,
            disk_bytes_per_us: 100,
            request_latency: Dur::from_us(150),
        }
    }
}

struct FileState {
    data: Vec<u8>,
}

struct PfsInner {
    files: FastMap<String, FileState>,
    /// Disk availability per I/O node.
    disk_free: Vec<Time>,
    reads: u64,
    writes: u64,
    bytes: u64,
}

/// The shared file system.
pub struct Pfs {
    cfg: PfsConfig,
    inner: Local<PfsInner>,
}

/// Counters for tests.
#[derive(Clone, Debug, Default)]
pub struct PfsStats {
    /// Read requests served.
    pub reads: u64,
    /// Write requests served.
    pub writes: u64,
    /// Total bytes moved.
    pub bytes: u64,
}

impl Pfs {
    /// An empty file system.
    pub fn new(cfg: PfsConfig) -> Rc<Pfs> {
        assert!(cfg.io_nodes > 0 && cfg.stripe > 0);
        let disks = cfg.io_nodes;
        Rc::new(Pfs {
            cfg,
            inner: Local::new(PfsInner {
                files: FastMap::default(),
                disk_free: vec![Time::ZERO; disks],
                reads: 0,
                writes: 0,
                bytes: 0,
            }),
        })
    }

    /// The configured shape.
    pub fn cfg(&self) -> &PfsConfig {
        &self.cfg
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PfsStats {
        let inner = self.inner.lock();
        PfsStats {
            reads: inner.reads,
            writes: inner.writes,
            bytes: inner.bytes,
        }
    }

    /// Create (or truncate) a file.
    pub fn create(&self, name: &str) {
        self.inner
            .lock()
            .files
            .insert(name.to_string(), FileState { data: Vec::new() });
    }

    /// Current length of a file.
    pub fn len(&self, name: &str) -> Option<usize> {
        self.inner.lock().files.get(name).map(|f| f.data.len())
    }

    /// Whether `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.inner.lock().files.contains_key(name)
    }

    /// Which I/O node serves byte `offset`.
    fn node_of(&self, offset: usize) -> usize {
        (offset / self.cfg.stripe) % self.cfg.io_nodes
    }

    /// Schedule one contiguous access; returns its completion time.
    /// `offset..offset+len` must lie within a single stripe.
    fn access_stripe(
        &self,
        now: Time,
        name: &str,
        offset: usize,
        len: usize,
        write: Option<&[u8]>,
    ) -> Time {
        let node = self.node_of(offset);
        let mut inner = self.inner.lock();
        let f = inner
            .files
            .get_mut(name)
            .unwrap_or_else(|| panic!("no such file: {name}"));
        if let Some(bytes) = write {
            if f.data.len() < offset + len {
                f.data.resize(offset + len, 0);
            }
            f.data[offset..offset + len].copy_from_slice(bytes);
            inner.writes += 1;
        } else {
            inner.reads += 1;
        }
        inner.bytes += len as u64;
        let start = now.max(inner.disk_free[node]);
        let done =
            start + self.cfg.request_latency + Dur::for_bytes(len, self.cfg.disk_bytes_per_us);
        inner.disk_free[node] = done;
        done
    }

    /// Schedule a write of `data` at `offset`; returns completion time.
    /// The access is split at stripe boundaries so independent I/O nodes
    /// work in parallel.
    pub fn write(&self, now: Time, name: &str, offset: usize, data: &[u8]) -> Time {
        let mut done = now;
        let mut off = offset;
        let mut rest = data;
        while !rest.is_empty() {
            let in_stripe = self.cfg.stripe - (off % self.cfg.stripe);
            let take = rest.len().min(in_stripe);
            let t = self.access_stripe(now, name, off, take, Some(&rest[..take]));
            done = done.max(t);
            off += take;
            rest = &rest[take..];
        }
        done
    }

    /// Schedule a read of `len` bytes at `offset`; returns `(completion
    /// time, bytes)`. Short reads past EOF return what exists.
    pub fn read(&self, now: Time, name: &str, offset: usize, len: usize) -> (Time, Vec<u8>) {
        let file_len = self
            .len(name)
            .unwrap_or_else(|| panic!("no such file: {name}"));
        let end = (offset + len).min(file_len);
        let mut out = Vec::with_capacity(end.saturating_sub(offset));
        let mut done = now;
        let mut off = offset;
        while off < end {
            let in_stripe = self.cfg.stripe - (off % self.cfg.stripe);
            let take = (end - off).min(in_stripe);
            let t = self.access_stripe(now, name, off, take, None);
            {
                let inner = self.inner.lock();
                let f = &inner.files[name];
                out.extend_from_slice(&f.data[off..off + take]);
            }
            done = done.max(t);
            off += take;
        }
        (done, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let pfs = Pfs::new(PfsConfig::default());
        pfs.create("f");
        let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        pfs.write(Time::ZERO, "f", 1000, &data);
        let (_, got) = pfs.read(Time::ZERO, "f", 1000, data.len());
        assert_eq!(got, data);
        assert_eq!(pfs.len("f"), Some(1000 + data.len()));
    }

    #[test]
    fn striping_parallelizes_across_io_nodes() {
        // One big write spanning 4 stripes on 4 nodes completes in roughly
        // the time of one stripe; on 1 node it serializes.
        let len = 256 << 10;
        let t4 = {
            let pfs = Pfs::new(PfsConfig::default());
            pfs.create("f");
            pfs.write(Time::ZERO, "f", 0, &vec![7u8; len]).as_ns()
        };
        let t1 = {
            let pfs = Pfs::new(PfsConfig {
                io_nodes: 1,
                ..Default::default()
            });
            pfs.create("f");
            pfs.write(Time::ZERO, "f", 0, &vec![7u8; len]).as_ns()
        };
        assert!(t4 * 3 < t1, "striping speedup missing: {t4} vs {t1}");
    }

    #[test]
    fn same_node_accesses_serialize() {
        let pfs = Pfs::new(PfsConfig::default());
        pfs.create("f");
        let stripe = pfs.cfg().stripe;
        // Two writes to the same stripe (same I/O node) serialize.
        let a = pfs.write(Time::ZERO, "f", 0, &vec![1u8; stripe]);
        let b = pfs.write(Time::ZERO, "f", 0, &vec![2u8; stripe]);
        assert!(b.as_ns() >= 2 * a.as_ns() - 1);
    }

    #[test]
    fn read_past_eof_is_short() {
        let pfs = Pfs::new(PfsConfig::default());
        pfs.create("f");
        pfs.write(Time::ZERO, "f", 0, &[1, 2, 3]);
        let (_, got) = pfs.read(Time::ZERO, "f", 1, 100);
        assert_eq!(got, vec![2, 3]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use qsim::Pcg32;

    /// Arbitrary interleavings of writes and reads behave like a plain
    /// in-memory file.
    #[test]
    fn pfs_matches_reference_file() {
        for case in 0..256 {
            let mut rng = Pcg32::new(case);
            let ops: Vec<(usize, usize, u8, bool)> = (0..rng.range(1, 25))
                .map(|_| {
                    (
                        rng.range(0, 300_000),
                        rng.range(1, 80_000),
                        rng.next_u8(),
                        rng.chance(0.5),
                    )
                })
                .collect();
            let pfs = Pfs::new(PfsConfig::default());
            pfs.create("f");
            let mut reference: Vec<u8> = Vec::new();
            for (off, len, fill, is_write) in ops {
                if is_write {
                    let data = vec![fill; len];
                    pfs.write(Time::ZERO, "f", off, &data);
                    if reference.len() < off + len {
                        reference.resize(off + len, 0);
                    }
                    reference[off..off + len].copy_from_slice(&data);
                } else {
                    let (_, got) = pfs.read(Time::ZERO, "f", off, len);
                    let end = (off + len).min(reference.len());
                    let expect = if off < reference.len() {
                        &reference[off..end]
                    } else {
                        &[][..]
                    };
                    assert_eq!(&got[..], expect, "case {case}");
                }
            }
            assert_eq!(pfs.len("f"), Some(reference.len()), "case {case}");
        }
    }
}
