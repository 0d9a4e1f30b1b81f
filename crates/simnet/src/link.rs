//! Interconnect model.
//!
//! The paper's cluster uses a 4X FDR InfiniBand fabric (~56 Gbit/s) with
//! RMA support (§IV). Message time is the classic alpha-beta model:
//! `t = latency + bytes / bandwidth`. One-sided RMA operations (the
//! work-load estimate puts/gets) are latency-dominated small transfers.

/// Alpha-beta link model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// One-way message latency in seconds.
    pub latency_s: f64,
    /// Bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Cost of a one-sided RMA put/get of a few words.
    pub rma_op_s: f64,
}

impl LinkModel {
    /// 4X FDR InfiniBand: ~1.5 us MPI latency, 56 Gbit/s signalling
    /// (~6.8 GB/s effective), ~1 us RMA ops.
    pub fn fdr_infiniband() -> Self {
        LinkModel {
            latency_s: 1.5e-6,
            bandwidth_bps: 6.8e9,
            rma_op_s: 1.0e-6,
        }
    }

    /// Time to move `bytes` point-to-point.
    #[inline]
    pub fn transfer_s(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fdr_numbers_are_sane() {
        let l = LinkModel::fdr_infiniband();
        // A 1 MiB subdomain moves in ~150 us + latency.
        let t = l.transfer_s(1 << 20);
        assert!(t > 1e-4 && t < 1e-3, "1 MiB transfer {t}");
        // Small message is latency bound.
        assert!((l.transfer_s(64) - l.latency_s) / l.latency_s < 0.01);
    }

    #[test]
    fn transfer_scales_linearly() {
        let l = LinkModel::fdr_infiniband();
        let t1 = l.transfer_s(1_000_000) - l.latency_s;
        let t2 = l.transfer_s(2_000_000) - l.latency_s;
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}
