//! The experiment harness: everything the `experiments`, `phast_cli` and
//! `loadgen` binaries share.
//!
//! Each table/figure of the paper has a generator in the `experiments`
//! binary (see `DESIGN.md` for the experiment index); this library hosts
//! the workload builders, the host-inspection code (Table IV), the
//! memory-bandwidth lower-bound test (Section VIII-B), the energy model
//! (Table VI), the report formatting, and the perf-regression suite
//! behind `phast_cli bench` (see [`regress`]).

pub mod cli;
pub mod energy;
pub mod hostinfo;
pub mod lower_bound;
pub mod regress;
pub mod report;
pub mod timing;
pub mod workload;

pub use report::Table;
pub use timing::{time_once, SampleStats, Samples};
pub use workload::{Instance, InstanceConfig};
