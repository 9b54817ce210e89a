//! Registration (pin-down) cache for Elan4 MMU mappings.
//!
//! Every rendezvous request expands its memory descriptor with an Elan4
//! mapping (paper §4.2), and [`elan4::ElanCtx::map`] charges real time for
//! it: pinning plus per-page MMU loads on map, a TLB shootdown on unmap.
//! Applications reuse communication buffers, so the classic optimization —
//! MPICH2-over-InfiniBand's registration cache — applies: keep mappings
//! alive after the request completes and reuse them when the same buffer
//! comes around again, unmapping only when capacity pressure evicts them.
//!
//! The cache is an LRU keyed by `(buffer base, len)` with a byte capacity
//! ([`REG_CACHE_BYTES`]) and an entry capacity (the `reg.cache_entries`
//! cvar); the `reg.cache` cvar turns it on and off. The cache reads both
//! cvars live from the endpoint's tunables. Entries are reference-counted:
//! in-flight requests hold a reference, so eviction only considers idle
//! entries and an active mapping can never be torn down under a DMA.
//! Releases of mappings the cache does not own (bounce buffers, cache
//! disabled at acquire time) fall through to a direct charged unmap, which
//! keeps the failure paths ([`crate::proto`]'s `fail_request`) leak-safe
//! without per-request bookkeeping.
//!
//! Locking: the cache lock is never held across `map`/`unmap` (both advance
//! virtual time). Lookups lock, decide, unlock; misses map outside the lock
//! and then publish, tolerating a concurrent insert of the same key by the
//! progress thread.

use elan4::{E4Addr, HostBuf};
use qsim::{FastMap, Proc};
use std::rc::Rc;

use crate::endpoint::Endpoint;

/// Byte capacity of every endpoint's registration cache: past it, idle LRU
/// mappings are evicted.
pub const REG_CACHE_BYTES: usize = 32 << 20;

/// Live counters of one endpoint's registration cache. Always maintained
/// (independent of the `telemetry.metrics` gate) so `reg.*` pvars and the
/// bench harness read true totals.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RegStats {
    /// Acquires served from a live mapping.
    pub hits: u64,
    /// Acquires that had to create a mapping.
    pub misses: u64,
    /// Idle mappings torn down by capacity pressure.
    pub evictions: u64,
    /// Bytes currently covered by cached mappings.
    pub mapped_bytes: u64,
    /// Cached mappings currently alive.
    pub entries: u64,
}

#[derive(Debug)]
struct Entry {
    e4: E4Addr,
    len: usize,
    /// In-flight requests holding this mapping; eviction needs 0.
    refs: u32,
    /// Monotonic LRU stamp (bumped on every touch).
    last_use: u64,
}

/// The pin-down cache proper: plain data behind the endpoint's `reg` lock.
#[derive(Debug, Default)]
pub struct RegCache {
    /// Keyed by `(host base offset, len)`; the owning node is fixed per
    /// endpoint, so it is not part of the key.
    entries: FastMap<(usize, usize), Entry>,
    cur_bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl RegCache {
    /// Current counters.
    pub fn stats(&self) -> RegStats {
        RegStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            mapped_bytes: self.cur_bytes as u64,
            entries: self.entries.len() as u64,
        }
    }

    /// Pop LRU idle entries until within `cap_bytes` and `cap_entries`;
    /// returns the mappings the caller must unmap (outside the cache lock).
    fn collect_victims(&mut self, cap_bytes: usize, cap_entries: usize) -> Vec<E4Addr> {
        let mut victims = Vec::new();
        while self.cur_bytes > cap_bytes || self.entries.len() > cap_entries {
            let Some((&key, _)) = self
                .entries
                .iter()
                .filter(|(_, e)| e.refs == 0)
                .min_by_key(|(_, e)| e.last_use)
            else {
                // Everything still referenced: stay over capacity for now.
                break;
            };
            let e = self.entries.remove(&key).unwrap();
            self.cur_bytes -= e.len;
            self.evictions += 1;
            victims.push(e.e4);
        }
        victims
    }
}

/// Map `region` for an RDMA, going through the endpoint's registration
/// cache. A hit reuses the live mapping (no charged time beyond the
/// lookup); a miss pays the full [`elan4::NicConfig::map_cost`] and inserts
/// the mapping, evicting idle LRU entries past capacity. With the cache
/// disabled this degenerates to a plain charged `map`.
pub fn acquire(proc: &Proc, ep: &Rc<Endpoint>, region: &HostBuf) -> E4Addr {
    let key = (region.addr.off, region.len);
    {
        let mut c = ep.reg.lock();
        if ep.tunables.reg_cache() {
            c.tick += 1;
            let tick = c.tick;
            if let Some(e) = c.entries.get_mut(&key) {
                e.refs += 1;
                e.last_use = tick;
                let out = e.e4;
                c.hits += 1;
                return out;
            }
            c.misses += 1;
        }
    }
    // Miss (or cache off): register outside the cache lock — mapping
    // advances virtual time.
    let e4 = ep.ectx.map(proc, region);
    let mut stale = Vec::new();
    let out = {
        let mut c = ep.reg.lock();
        if !ep.tunables.reg_cache() {
            e4
        } else if let Some(e) = c.entries.get_mut(&key) {
            // The progress thread inserted the same buffer while we were
            // mapping: share its entry and retire our fresh mapping.
            e.refs += 1;
            stale.push(e4);
            e.e4
        } else {
            c.tick += 1;
            let tick = c.tick;
            c.entries.insert(
                key,
                Entry {
                    e4,
                    len: region.len,
                    refs: 1,
                    last_use: tick,
                },
            );
            c.cur_bytes += region.len;
            stale = c.collect_victims(REG_CACHE_BYTES, ep.tunables.reg_cache_entries());
            e4
        }
    };
    for v in stale {
        ep.ectx.unmap(proc, v);
    }
    out
}

/// Release the mapping a request held. If the cache owns `(region, e4)`,
/// the unmap is deferred: the entry just drops a reference and becomes
/// evictable (the common case costs nothing). Anything the cache does not
/// own — bounce-buffer mappings, mappings made while the cache was off —
/// is unmapped directly with the shootdown charged.
pub fn release(proc: &Proc, ep: &Rc<Endpoint>, region: &HostBuf, e4: E4Addr) {
    let key = (region.addr.off, region.len);
    let mut victims = Vec::new();
    let owned = {
        let mut c = ep.reg.lock();
        match c.entries.get_mut(&key) {
            Some(e) if e.e4 == e4 => {
                debug_assert!(e.refs > 0, "registration cache refcount underflow");
                e.refs = e.refs.saturating_sub(1);
                victims = c.collect_victims(REG_CACHE_BYTES, ep.tunables.reg_cache_entries());
                true
            }
            _ => false,
        }
    };
    for v in victims {
        ep.ectx.unmap(proc, v);
    }
    if !owned {
        ep.ectx.unmap(proc, e4);
    }
}

/// Tear down every idle cache entry (finalize path), charging each unmap.
/// Entries still referenced are left alone — by finalize time there are
/// none, which [`crate::endpoint::Endpoint::finalize`] asserts via
/// `mapping_count()`.
pub fn drain(proc: &Proc, ep: &Rc<Endpoint>) {
    let victims: Vec<E4Addr> = {
        let mut c = ep.reg.lock();
        let keys: Vec<(usize, usize)> = c
            .entries
            .iter()
            .filter(|(_, e)| e.refs == 0)
            .map(|(k, _)| *k)
            .collect();
        keys.iter()
            .map(|k| {
                let e = c.entries.remove(k).unwrap();
                c.cur_bytes -= e.len;
                e.e4
            })
            .collect()
    };
    for v in victims {
        ep.ectx.unmap(proc, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elan4::{HostAddr, Vpid};

    fn entry(va: u64, len: usize, refs: u32, last_use: u64) -> Entry {
        Entry {
            e4: E4Addr::from_raw(Vpid(0), va),
            len,
            refs,
            last_use,
        }
    }

    #[test]
    fn lru_evicts_oldest_idle_entry_first() {
        let mut c = RegCache::default();
        c.entries.insert((0, 40), entry(0x1000, 40, 0, 1));
        c.entries.insert((40, 40), entry(0x2000, 40, 0, 2));
        c.entries.insert((80, 40), entry(0x3000, 40, 0, 3));
        c.cur_bytes = 120;
        let victims = c.collect_victims(100, 16);
        assert_eq!(victims, vec![E4Addr::from_raw(Vpid(0), 0x1000)]);
        assert_eq!(c.cur_bytes, 80);
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn referenced_entries_are_never_evicted() {
        let mut c = RegCache::default();
        c.entries.insert((0, 40), entry(0x1000, 40, 1, 1));
        c.cur_bytes = 40;
        assert!(c.collect_victims(10, 16).is_empty());
        assert_eq!(c.entries.len(), 1);
    }

    #[test]
    fn entry_capacity_also_triggers_eviction() {
        let mut c = RegCache::default();
        c.entries.insert((0, 8), entry(0x1000, 8, 0, 1));
        c.entries.insert((8, 8), entry(0x2000, 8, 0, 2));
        c.cur_bytes = 16;
        let victims = c.collect_victims(usize::MAX, 1);
        assert_eq!(victims.len(), 1);
        assert_eq!(c.entries.len(), 1);
        assert!(c.entries.contains_key(&(8, 8)), "LRU entry must go first");
    }

    fn buf(off: usize, len: usize) -> HostBuf {
        HostBuf {
            addr: HostAddr { node: 0, off },
            len,
        }
    }

    #[test]
    fn stats_track_current_footprint() {
        let mut c = RegCache::default();
        c.entries.insert((0, 60), entry(0x1000, 60, 0, 1));
        c.cur_bytes = 60;
        c.hits = 5;
        c.misses = 2;
        let s = c.stats();
        assert_eq!(s.hits, 5);
        assert_eq!(s.misses, 2);
        assert_eq!(s.mapped_bytes, 60);
        assert_eq!(s.entries, 1);
        // Keys are (base, len): the same base with a different length is a
        // different registration.
        assert_ne!(
            (buf(0, 60).addr.off, buf(0, 60).len),
            (buf(0, 61).addr.off, buf(0, 61).len)
        );
    }
}
