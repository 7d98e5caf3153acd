//! Umbrella crate for the Monocle reproduction workspace.
//!
//! Re-exports the public crates so examples and integration tests have a
//! single dependency root. See the individual crates for documentation.

#![forbid(unsafe_code)]

pub use monocle;
pub use monocle_datasets as datasets;
pub use monocle_netgraph as netgraph;
pub use monocle_openflow as openflow;
pub use monocle_packet as packet;
pub use monocle_sat as sat;
pub use monocle_switchsim as switchsim;
