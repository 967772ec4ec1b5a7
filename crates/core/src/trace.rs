//! CI-test trace recording — the bridge to the cache simulator.
//!
//! Table IV is regenerated by replaying the *exact* sequence of CI tests a
//! run performs (which variables, which conditioning sets, in which order)
//! through `fastbn-cachesim` under both data layouts. The recorder runs
//! the sequential scheduler with an observer and returns one record per
//! performed test; the bench binary owns the replay so this crate stays
//! independent of the simulator.

use crate::config::PcConfig;
use crate::skeleton::learn_skeleton_observed;
use fastbn_data::Dataset;
use fastbn_graph::{SepSets, UGraph};

/// One performed CI test `I(u, v | cond)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CiTestRecord {
    /// First tested variable.
    pub u: u32,
    /// Second tested variable.
    pub v: u32,
    /// Conditioning variable ids (size = the depth the test ran at).
    pub cond: Vec<u32>,
}

impl CiTestRecord {
    /// The depth this test belongs to (`|cond|`).
    pub fn depth(&self) -> usize {
        self.cond.len()
    }

    /// All variables the test touches, in fill order (X, Y, Z₁…Z_d).
    pub fn touched_vars(&self) -> Vec<usize> {
        let mut vars = Vec::with_capacity(2 + self.cond.len());
        vars.push(self.u as usize);
        vars.push(self.v as usize);
        vars.extend(self.cond.iter().map(|&c| c as usize));
        vars
    }
}

/// Run the sequential learner and record every performed CI test, in
/// execution order. Returns the records plus the learned skeleton and
/// sepsets (so callers can verify the traced run against an untraced one).
pub fn record_ci_trace(data: &Dataset, cfg: &PcConfig) -> (Vec<CiTestRecord>, UGraph, SepSets) {
    let mut records: Vec<CiTestRecord> = Vec::new();
    let seq_cfg = PcConfig {
        mode: crate::config::ParallelMode::Sequential,
        ..cfg.clone()
    };
    let recorder = |u: u32, v: u32, cond: &[usize]| {
        records.push(CiTestRecord {
            u,
            v,
            cond: cond.iter().map(|&c| c as u32).collect(),
        });
    };
    let (skeleton, sepsets, _stats) = learn_skeleton_observed(data, &seq_cfg, recorder);
    (records, skeleton, sepsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::learn_skeleton;

    fn dataset() -> Dataset {
        let mut cols: Vec<Vec<u8>> = vec![Vec::new(); 3];
        let mut state = 99u64;
        for _ in 0..1500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = ((state >> 33) & 1) as u8;
            let y = ((state >> 34) & 1) as u8;
            cols[0].push(x);
            cols[1].push(y);
            cols[2].push(x ^ (state >> 35).is_multiple_of(10) as u8);
        }
        Dataset::from_columns(vec![], vec![2, 2, 2], cols).unwrap()
    }

    #[test]
    fn trace_count_matches_run_stats() {
        let data = dataset();
        let cfg = PcConfig::fast_bns_seq();
        let (records, skeleton, _) = record_ci_trace(&data, &cfg);
        let (skeleton2, _, stats) = learn_skeleton(&data, &cfg);
        assert_eq!(skeleton, skeleton2, "tracing must not change the result");
        let total: u64 = stats.iter().map(|s| s.ci_tests).sum();
        assert_eq!(records.len() as u64, total);
    }

    #[test]
    fn depth_zero_tests_come_first_and_are_marginal() {
        let data = dataset();
        let (records, _, _) = record_ci_trace(&data, &PcConfig::fast_bns_seq());
        let n = data.n_vars();
        assert!(records.len() >= n * (n - 1) / 2);
        for r in &records[..n * (n - 1) / 2] {
            assert_eq!(r.depth(), 0, "first n(n−1)/2 tests are marginal");
        }
        // Depths never decrease along the trace.
        for w in records.windows(2) {
            assert!(w[1].depth() >= w[0].depth());
        }
    }

    #[test]
    fn touched_vars_layout() {
        let r = CiTestRecord {
            u: 3,
            v: 7,
            cond: vec![1, 9],
        };
        assert_eq!(r.touched_vars(), vec![3, 7, 1, 9]);
        assert_eq!(r.depth(), 2);
    }

    #[test]
    fn parallel_config_is_forced_sequential_for_tracing() {
        let data = dataset();
        let cfg = PcConfig::fast_bns().with_threads(4); // CI-level parallel
        let (records, skeleton, _) = record_ci_trace(&data, &cfg);
        assert!(!records.is_empty());
        let (seq_skel, _, _) = learn_skeleton(&data, &PcConfig::fast_bns_seq());
        assert_eq!(skeleton, seq_skel);
    }
}
