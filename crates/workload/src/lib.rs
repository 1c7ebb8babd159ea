//! # dvmp-workload
//!
//! Everything about the jobs the datacenter serves.
//!
//! The paper evaluates on a one-week extract of the LPC log from the
//! Parallel Workloads Archive, preprocessed as follows (Section V-A):
//! cancelled jobs and jobs with small memory requirements are dropped, and
//! each n-core job is normalized into n single-core VM requests with the
//! job's memory divided equally — leaving 4 574 VM-producing jobs with a
//! peak of 982 arrivals/day, memory mostly below 1 GiB and 2 077 jobs
//! shorter than one day.
//!
//! This crate provides both halves of that pipeline:
//!
//! - [`swf`]: a full reader/writer for the Standard Workload Format, so the
//!   real LPC log can be dropped in when available;
//! - [`synthetic`]: a calibrated generator reproducing the trace's marginal
//!   distributions and arrival-intensity shape when the real log is not
//!   available (the default for this reproduction — see DESIGN.md §3);
//! - [`trace`]: the paper's preprocessing filters and the job → VM-request
//!   normalization, applied identically to both sources;
//! - [`stats`]: the Fig. 2 workload characterisation;
//! - [`elasticity`]: a synthetic vertical-elasticity overlay — per-VM
//!   resize events with configurable grow/shrink distributions, layered on
//!   any request stream for the overbooking experiments.

pub mod elasticity;
pub mod job;
pub mod stats;
pub mod swf;
pub mod synthetic;
pub mod trace;

pub use elasticity::{ElasticityProfile, ResizeEvent};
pub use job::{Job, JobStatus};
pub use stats::WorkloadStats;
pub use synthetic::{LpcProfile, SyntheticGenerator};
pub use trace::{Trace, VmRequest};
