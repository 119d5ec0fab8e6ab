//! The JSON-writing sweeps, one module each. A module picks its grid
//! (full, or the `--smoke` CI guard grid) in one place, runs it through
//! [`crate::sweep`] and keeps `(axes, report)` pairs, prints the table
//! and writes `BENCH_<name>.json` from one column declaration, and
//! asserts the shapes the results must keep. The `*_points` drivers are
//! public so `figshapes` and the shape tests run the same code; the
//! `*_cols` functions so the artefact-schema test can compare them
//! against the committed files.

mod backside;
mod clusters;
mod coherence;
mod comm;
mod faults;
mod hetero;
mod scaling;

pub use backside::*;
pub use clusters::*;
pub use coherence::*;
pub use comm::*;
pub use faults::*;
pub use hetero::*;
pub use scaling::*;
