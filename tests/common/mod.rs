//! Shared by the equivalence suites: reports compared with `==` after
//! one normalization, so a counter added to a report is compared too.

use hsim::prelude::*;

/// A report with the skip accounting zeroed — `skipped_cycles` on each
/// per-core report and in its `core` statistics — which is all that
/// tells a skipping run from the lock-step run of the same machine.
pub trait Unskipped {
    /// This report as the lock-step run would have produced it.
    fn unskipped(&self) -> Self;
}

impl Unskipped for RunReport {
    fn unskipped(&self) -> Self {
        let mut r = self.clone();
        r.skipped_cycles = 0;
        r.core.skipped_cycles = 0;
        r
    }
}

impl Unskipped for MultiRunReport {
    fn unskipped(&self) -> Self {
        MultiRunReport {
            per_core: self.per_core.iter().map(Unskipped::unskipped).collect(),
            ..self.clone()
        }
    }
}

impl Unskipped for ClusterRunReport {
    fn unskipped(&self) -> Self {
        ClusterRunReport {
            per_cluster: self.per_cluster.iter().map(Unskipped::unskipped).collect(),
            ..self.clone()
        }
    }
}
