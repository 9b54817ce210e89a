//! First-fit free-list allocator over a node's simulated main memory.
//!
//! Simple by design: allocations are 64-byte aligned (cache-line-ish), and
//! adjacent free blocks coalesce on free. The allocator only hands out
//! offsets; the byte storage lives in the node's arena.

const ALIGN: usize = 64;

#[derive(Clone, Debug)]
struct FreeBlock {
    off: usize,
    len: usize,
}

/// Offset allocator for one node's arena.
#[derive(Debug)]
pub struct Allocator {
    capacity: usize,
    /// Sorted by offset; no two blocks adjacent (always coalesced).
    free: Vec<FreeBlock>,
    in_use: usize,
}

fn align_up(v: usize) -> usize {
    v.div_ceil(ALIGN) * ALIGN
}

impl Allocator {
    pub fn new(capacity: usize) -> Self {
        Allocator {
            capacity,
            free: vec![FreeBlock {
                off: 0,
                len: capacity,
            }],
            in_use: 0,
        }
    }

    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Allocate `len` bytes; returns the offset, or `None` if out of memory.
    pub fn alloc(&mut self, len: usize) -> Option<usize> {
        let len = align_up(len.max(1));
        for i in 0..self.free.len() {
            if self.free[i].len >= len {
                let off = self.free[i].off;
                self.free[i].off += len;
                self.free[i].len -= len;
                if self.free[i].len == 0 {
                    self.free.remove(i);
                }
                self.in_use += len;
                return Some(off);
            }
        }
        None
    }

    /// Return a block allocated with the same `len` passed to [`alloc`].
    ///
    /// # Panics
    /// On double free or overlapping free (model-integrity checks).
    pub fn free(&mut self, off: usize, len: usize) {
        let len = align_up(len.max(1));
        assert!(off + len <= self.capacity, "free out of range");
        let idx = self.free.partition_point(|b| b.off < off);
        if let Some(prev) = idx.checked_sub(1).map(|i| &self.free[i]) {
            assert!(
                prev.off + prev.len <= off,
                "overlapping free (double free?)"
            );
        }
        if let Some(next) = self.free.get(idx) {
            assert!(off + len <= next.off, "overlapping free (double free?)");
        }
        self.in_use -= len;
        self.free.insert(idx, FreeBlock { off, len });
        // Coalesce with neighbours.
        if idx + 1 < self.free.len()
            && self.free[idx].off + self.free[idx].len == self.free[idx + 1].off
        {
            self.free[idx].len += self.free[idx + 1].len;
            self.free.remove(idx + 1);
        }
        if idx > 0 && self.free[idx - 1].off + self.free[idx - 1].len == self.free[idx].off {
            self.free[idx - 1].len += self.free[idx].len;
            self.free.remove(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::Pcg32;

    #[test]
    fn alloc_free_roundtrip() {
        let mut a = Allocator::new(1 << 20);
        let x = a.alloc(100).unwrap();
        let y = a.alloc(200).unwrap();
        assert_ne!(x, y);
        a.free(x, 100);
        a.free(y, 200);
        assert_eq!(a.in_use(), 0);
        // after full free, the arena coalesces back to one block
        assert_eq!(a.free.len(), 1);
        assert_eq!(a.free[0].len, 1 << 20);
    }

    #[test]
    fn alignment() {
        let mut a = Allocator::new(4096);
        let x = a.alloc(1).unwrap();
        let y = a.alloc(1).unwrap();
        assert_eq!(x % ALIGN, 0);
        assert_eq!(y % ALIGN, 0);
        assert!(y >= x + ALIGN);
    }

    #[test]
    fn out_of_memory_is_none() {
        let mut a = Allocator::new(128);
        assert!(a.alloc(256).is_none());
        assert!(a.alloc(128).is_some());
        assert!(a.alloc(1).is_none());
    }

    #[test]
    #[should_panic(expected = "overlapping free")]
    fn double_free_panics() {
        let mut a = Allocator::new(4096);
        let x = a.alloc(64).unwrap();
        a.free(x, 64);
        a.free(x, 64);
    }

    #[test]
    fn allocations_never_overlap() {
        for case in 0..256 {
            let mut rng = Pcg32::new(case);
            let ops: Vec<usize> = (0..rng.range(1, 60)).map(|_| rng.range(1, 5000)).collect();
            let mut a = Allocator::new(1 << 20);
            let mut live: Vec<(usize, usize)> = Vec::new();
            for (i, len) in ops.iter().enumerate() {
                if i % 3 == 2 && !live.is_empty() {
                    let (off, l) = live.swap_remove(i % live.len());
                    a.free(off, l);
                } else if let Some(off) = a.alloc(*len) {
                    let end = off + len;
                    for &(o, l) in &live {
                        let aligned = super::align_up(*len);
                        assert!(
                            end <= o || off >= o + l,
                            "case {case}: overlap: [{off},{}) vs [{o},{}) aligned={aligned}",
                            end,
                            o + l
                        );
                    }
                    live.push((off, *len));
                }
            }
            // free everything; arena must return to a single block
            for (off, l) in live {
                a.free(off, l);
            }
            assert_eq!(a.in_use(), 0, "case {case}");
        }
    }
}
