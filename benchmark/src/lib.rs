//! Paper-scale SEDA benchmark.  See `benchmark/README.md`.

pub mod check;
pub mod json;
pub mod layers;
pub mod measure;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod xml;
