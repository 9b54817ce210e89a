//! Virtual-time cost model for the copy paths.
//!
//! The paper's §6.1 measures the datatype component at ~0.4 µs per request
//! over plain `memcpy` (the "DTP" curves in Fig. 7): the convertor
//! initializes a copy engine per request and walks typemap segments. The
//! transports charge these costs when staging data.

use qsim::Dur;

use crate::Convertor;

/// Host copy-cost parameters.
#[derive(Clone, Debug)]
pub struct CopyModel {
    /// One-time convertor/copy-engine initialization per request.
    pub convertor_setup: Dur,
    /// Per contiguous segment walked by the convertor.
    pub per_segment: Dur,
    /// Host copy bandwidth, bytes per microsecond.
    pub bytes_per_us: u64,
}

impl Default for CopyModel {
    fn default() -> Self {
        CopyModel {
            convertor_setup: Dur::from_ns(400),
            per_segment: Dur::from_ns(20),
            bytes_per_us: 2850,
        }
    }
}

impl CopyModel {
    /// Plain `memcpy` of `len` bytes (the fast path the paper substitutes
    /// for the datatype engine when measuring transport overheads).
    pub fn memcpy(&self, len: usize) -> Dur {
        Dur::for_bytes(len, self.bytes_per_us)
    }

    /// Cost of packing/unpacking `len` bytes out of `conv` through the
    /// convertor.
    pub fn convertor(&self, conv: &Convertor, len: usize) -> Dur {
        self.convertor_setup + self.per_segment * conv.segment_count() as u64 + self.memcpy(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Datatype;

    #[test]
    fn convertor_costs_more_than_memcpy() {
        let m = CopyModel::default();
        let c = Convertor::new(Datatype::bytes(1024), 1);
        let plain = m.memcpy(1024);
        let conv = m.convertor(&c, 1024);
        let delta = conv - plain;
        // ~0.4us engine setup + 1 segment.
        assert_eq!(delta.as_ns(), 420);
    }

    #[test]
    fn segmented_types_pay_per_segment() {
        let m = CopyModel::default();
        let v = Convertor::new(Datatype::vector(10, 1, 2, Datatype::u8()), 1);
        let c = Convertor::new(Datatype::bytes(10), 1);
        assert!(m.convertor(&v, 10) > m.convertor(&c, 10));
    }

    #[test]
    fn zero_length_copy_costs_setup_only() {
        let m = CopyModel::default();
        let c = Convertor::new(Datatype::bytes(0), 0);
        assert_eq!(m.memcpy(0), Dur::ZERO);
        assert_eq!(m.convertor(&c, 0), m.convertor_setup);
    }
}
