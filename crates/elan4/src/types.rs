//! Identifier and address types shared across the NIC model.

use qsnet::NodeId;

/// Quadrics virtual process id: a (node, context) pair flattened into one
/// network-addressable integer. Decoupled from the MPI rank — the paper's
/// first design point.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Vpid(pub u32);

impl Vpid {
    pub(crate) fn new(node: NodeId, ctx: u16, ctxs_per_node: u16) -> Vpid {
        Vpid(node as u32 * ctxs_per_node as u32 + ctx as u32)
    }

    pub(crate) fn node(self, ctxs_per_node: u16) -> NodeId {
        (self.0 / ctxs_per_node as u32) as NodeId
    }

    /// The network-addressable integer value.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for Vpid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vpid{}", self.0)
    }
}

/// A host-virtual address inside a node's simulated main memory.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct HostAddr {
    /// Which node's memory arena.
    pub node: NodeId,
    /// Byte offset within the arena (the "virtual address").
    pub off: usize,
}

/// An allocated region of host memory.
#[derive(Copy, Clone, Debug)]
pub struct HostBuf {
    /// Start of the region.
    pub addr: HostAddr,
    /// Length in bytes.
    pub len: usize,
}

impl HostBuf {
    /// A sub-range of this buffer.
    ///
    /// # Panics
    /// If the range exceeds the buffer.
    pub fn slice(&self, off: usize, len: usize) -> HostBuf {
        assert!(off + len <= self.len, "slice out of bounds");
        HostBuf {
            addr: HostAddr {
                node: self.addr.node,
                off: self.addr.off + off,
            },
            len,
        }
    }
}

/// An Elan-network-visible address: the translated (`E4 Addr`) form a DMA
/// descriptor must carry. Owned by a context's MMU; other NICs resolve it
/// through that context's translation table.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct E4Addr {
    pub(crate) vpid: Vpid,
    pub(crate) va: u64,
}

impl E4Addr {
    /// Reconstruct an address received over the wire (vpid + value).
    pub fn from_raw(vpid: Vpid, va: u64) -> E4Addr {
        E4Addr { vpid, va }
    }

    /// The context that owns the mapping.
    pub fn owner(&self) -> Vpid {
        self.vpid
    }

    /// The Elan-virtual address value.
    pub fn value(&self) -> u64 {
        self.va
    }

    /// Address arithmetic within one mapped region.
    pub fn offset(&self, delta: usize) -> E4Addr {
        E4Addr {
            vpid: self.vpid,
            va: self.va + delta as u64,
        }
    }
}

/// Identifies one receive queue within a context.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct QueueId(pub u16);

/// Identifies one Elan event slot within a context.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct EventId(pub u32);

/// One occupant of an event slot, as a posted command names its local
/// completion event: the slot and the generation it had when
/// [`ElanEvent::event_ref`] was called. Freeing an event moves its slot to
/// the next generation, so a completion through a reference taken before
/// the free reaches neither the freed event nor a later occupant of the
/// slot.
///
/// [`ElanEvent::event_ref`]: crate::ElanEvent::event_ref
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct EventRef {
    pub(crate) id: EventId,
    pub(crate) gen: u32,
}

/// RDMA direction.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DmaKind {
    /// Local memory -> remote memory.
    Write,
    /// Remote memory -> local memory.
    Read,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpid_roundtrip() {
        let v = Vpid::new(3, 7, 64);
        assert_eq!(v.raw(), 3 * 64 + 7);
        assert_eq!(v.node(64), 3);
    }

    #[test]
    fn hostbuf_slice() {
        let b = HostBuf {
            addr: HostAddr { node: 1, off: 100 },
            len: 50,
        };
        let s = b.slice(10, 20);
        assert_eq!(s.addr.off, 110);
        assert_eq!(s.len, 20);
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn hostbuf_slice_oob() {
        let b = HostBuf {
            addr: HostAddr { node: 0, off: 0 },
            len: 10,
        };
        let _ = b.slice(5, 6);
    }
}
