//! # kst-workloads — traces, demand matrices, and workload generators
//!
//! Implements the workload side of the paper's evaluation (Section 5):
//! * [`trace::Trace`] / [`trace::DemandMatrix`] — the request-sequence and
//!   offline-demand abstractions of the model (Section 2);
//! * [`decay::DecayingDemand`] — the output-sensitive (O(distinct pairs))
//!   demand ledger driving the lazy nets' rebuild policies and the
//!   resharding planner: raw epoch counts folded into a fixed-point EWMA
//!   at a configurable half-life (0 = per-epoch), with per-key dirty
//!   tracking; [`decay::DemandView`] is the planner-facing snapshot the
//!   two-phase rebuild machinery consumes, and [`decay::KeyMass`] its
//!   prefix-summed key-range index over weights and their change;
//! * [`gens`] — seeded generators for the uniform and temporal-locality
//!   synthetic workloads, plus simulated stand-ins for the three real
//!   datacenter trace datasets (HPC mini-apps, ProjecToR, Facebook);
//! * [`mod@stats`] — temporal/spatial locality measures used to verify that
//!   simulated traces land in the regime the paper describes.

#![forbid(unsafe_code)]

pub mod decay;
pub mod gens;
pub mod stats;
pub mod trace;

pub use decay::{DecayingDemand, DemandView, KeyMass};
pub use stats::{entropy_bound_rhs, stats, TraceStats};
pub use trace::{partition_keyspace, DemandMatrix, KeyRange, NodeKey, Trace};
