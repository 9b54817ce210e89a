//! # ompi-datatype — MPI datatype engine
//!
//! Open MPI ships a datatype component that packs and unpacks arbitrarily
//! structured user data through a *convertor* (a small copy engine set up per
//! request). The paper measures that engine's cost at about 0.4 µs per
//! request versus a plain `memcpy` (§6.1, the "DTP" series in Fig. 7).
//!
//! This crate reproduces both halves: a real typemap/pack/unpack engine that
//! moves actual bytes (so correctness is testable), and a cost model
//! ([`CopyModel`]) that the transport layers use to charge virtual time for
//! either the convertor path or the memcpy fast path.

#![warn(missing_docs)]

mod cost;
mod typemap;

pub use cost::CopyModel;
pub use typemap::{Datatype, SegmentIter};

/// A pack/unpack engine bound to `(datatype, count)` — Open MPI's convertor.
///
/// The convertor walks the typemap's contiguous segments; for contiguous
/// types it degenerates to a single segment (which is why the memcpy fast
/// path exists at all).
#[derive(Clone, Debug)]
pub struct Convertor {
    dtype: Datatype,
    count: usize,
}

impl Convertor {
    /// Bind a convertor to `count` elements of `dtype`.
    pub fn new(dtype: Datatype, count: usize) -> Self {
        Convertor { dtype, count }
    }

    /// The element type.
    pub fn datatype(&self) -> &Datatype {
        &self.dtype
    }

    /// The element count.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Total packed bytes this convertor produces.
    pub fn packed_len(&self) -> usize {
        self.dtype.size() * self.count
    }

    /// Memory footprint (extent * count) of the unpacked representation.
    pub fn span(&self) -> usize {
        self.dtype.extent() * self.count
    }

    /// True when packing is the identity (single contiguous segment).
    pub fn is_contiguous(&self) -> bool {
        self.dtype.is_contiguous()
    }

    /// Gather `src` (one unpacked region of at least [`Convertor::span`]
    /// bytes) into a packed byte vector.
    pub fn pack(&self, src: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.packed_len());
        for (off, len) in self.segments() {
            out.extend_from_slice(&src[off..off + len]);
        }
        out
    }

    /// Pack only `[skip, skip+len)` of the packed stream — used when a
    /// message is fragmented across transports.
    pub fn pack_range(&self, src: &[u8], skip: usize, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut pos = 0usize;
        for (off, seg_len) in self.segments() {
            let seg_start = pos;
            let seg_end = pos + seg_len;
            pos = seg_end;
            if seg_end <= skip {
                continue;
            }
            if seg_start >= skip + len {
                break;
            }
            let from = skip.max(seg_start) - seg_start;
            let to = (skip + len).min(seg_end) - seg_start;
            out.extend_from_slice(&src[off + from..off + to]);
        }
        out
    }

    /// Scatter a packed stream back into `dst`.
    ///
    /// # Panics
    /// If `packed` is longer than the convertor's packed length.
    pub fn unpack(&self, packed: &[u8], dst: &mut [u8]) {
        self.unpack_range(packed, 0, dst);
    }

    /// Scatter `packed`, which begins at packed-stream offset `skip`.
    pub fn unpack_range(&self, packed: &[u8], skip: usize, dst: &mut [u8]) {
        assert!(
            skip + packed.len() <= self.packed_len(),
            "unpack beyond the packed stream"
        );
        let mut pos = 0usize;
        let mut consumed = 0usize;
        for (off, seg_len) in self.segments() {
            if consumed == packed.len() {
                break;
            }
            let seg_start = pos;
            let seg_end = pos + seg_len;
            pos = seg_end;
            if seg_end <= skip {
                continue;
            }
            let from = skip.max(seg_start) - seg_start;
            let avail = packed.len() - consumed;
            let take = (seg_len - from).min(avail);
            dst[off + from..off + from + take].copy_from_slice(&packed[consumed..consumed + take]);
            consumed += take;
        }
        assert_eq!(consumed, packed.len(), "packed bytes did not fit typemap");
    }

    /// Iterate `(offset, len)` contiguous segments over the whole count.
    pub fn segments(&self) -> SegmentIter<'_> {
        self.dtype.segments(self.count)
    }

    /// Number of contiguous segments (drives the per-segment cost).
    pub fn segment_count(&self) -> usize {
        self.segments().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::Pcg32;

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn contiguous_pack_is_identity() {
        let c = Convertor::new(Datatype::bytes(64), 4);
        assert!(c.is_contiguous());
        assert_eq!(c.packed_len(), 256);
        let src = pattern(256);
        assert_eq!(c.pack(&src), src);
    }

    #[test]
    fn vector_packs_strided_columns() {
        // 4 blocks of 2 bytes every 5 bytes.
        let v = Datatype::vector(4, 2, 5, Datatype::u8());
        let c = Convertor::new(v, 1);
        assert_eq!(c.packed_len(), 8);
        assert_eq!(c.span(), 3 * 5 + 2);
        let src = pattern(c.span());
        let packed = c.pack(&src);
        assert_eq!(
            packed,
            vec![src[0], src[1], src[5], src[6], src[10], src[11], src[15], src[16]]
        );
    }

    #[test]
    fn unpack_inverts_pack() {
        let t = Datatype::strct(vec![
            (0, Datatype::vector(3, 4, 8, Datatype::u8())),
            (32, Datatype::bytes(10)),
        ]);
        let c = Convertor::new(t, 3);
        let src = pattern(c.span());
        let packed = c.pack(&src);
        assert_eq!(packed.len(), c.packed_len());
        let mut dst = vec![0u8; c.span()];
        c.unpack(&packed, &mut dst);
        // Every byte covered by the typemap must match; others stay zero.
        for (off, len) in c.segments() {
            assert_eq!(&dst[off..off + len], &src[off..off + len]);
        }
    }

    #[test]
    fn pack_range_matches_full_pack_slices() {
        let t = Datatype::vector(5, 3, 7, Datatype::u8());
        let c = Convertor::new(t, 2);
        let src = pattern(c.span());
        let full = c.pack(&src);
        for skip in [0usize, 1, 3, 14, 29] {
            for len in [0usize, 1, 2, 5, full.len() - skip] {
                if skip + len > full.len() {
                    continue;
                }
                assert_eq!(
                    c.pack_range(&src, skip, len),
                    &full[skip..skip + len],
                    "skip={skip} len={len}"
                );
            }
        }
    }

    #[test]
    fn unpack_range_reassembles_fragments() {
        let t = Datatype::indexed(vec![(0, 3), (10, 5), (20, 2)], Datatype::u8());
        let c = Convertor::new(t, 4);
        let src = pattern(c.span());
        let full = c.pack(&src);
        let mut dst = vec![0u8; c.span()];
        // Deliver in three fragments of uneven size.
        let cuts = [0, 7, 25, full.len()];
        for w in cuts.windows(2) {
            c.unpack_range(&full[w[0]..w[1]], w[0], &mut dst);
        }
        for (off, len) in c.segments() {
            assert_eq!(&dst[off..off + len], &src[off..off + len]);
        }
    }

    #[test]
    fn roundtrip_arbitrary_fragmentation() {
        for case in 0..256 {
            let mut rng = Pcg32::new(case);
            // Build an indexed type; normalize overlapping blocks by sorting
            // and spacing them out.
            let mut disp = 0usize;
            let blocks: Vec<(usize, usize)> = (0..rng.range(1, 6))
                .map(|_| {
                    let (gap, len) = (rng.range(0, 40), rng.range(1, 9));
                    let d = disp + gap;
                    disp = d + len;
                    (d, len)
                })
                .collect();
            let count = rng.range(1, 5);
            let cut = rng.range(1, 64);
            let t = Datatype::indexed(blocks, Datatype::u8());
            let c = Convertor::new(t, count);
            let src = pattern(c.span().max(1));
            let full = c.pack(&src);
            assert_eq!(full.len(), c.packed_len(), "case {case}");

            let mut dst = vec![0u8; c.span().max(1)];
            let mut pos = 0;
            while pos < full.len() {
                let take = cut.min(full.len() - pos);
                c.unpack_range(&full[pos..pos + take], pos, &mut dst);
                pos += take;
            }
            for (off, len) in c.segments() {
                assert_eq!(&dst[off..off + len], &src[off..off + len], "case {case}");
            }
        }
    }
}
