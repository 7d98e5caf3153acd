//! Shared helpers for the benchmark harness binaries (one binary per paper
//! table/figure; see `src/bin/`).

#![forbid(unsafe_code)]

pub mod report;
