//! Trace container, the paper's preprocessing filters, and the job →
//! VM-request normalization.
//!
//! Section V-A: *"We extracted a week from this trace, and filter out the
//! canceled jobs, jobs with small memory requirements, then use it as the
//! workload"* and *"We have normalized the memory required by each job by
//! equally dividing its number of cores required. So each VM request
//! requires a single core, a specific memory size with an estimate of its
//! run-time."*

use crate::job::Job;
use dvmp_cluster::resources::ResourceVector;
use dvmp_cluster::vm::{VmId, VmSpec};
use dvmp_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// An ordered collection of jobs (sorted by submit time).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    jobs: Vec<Job>,
}

impl Trace {
    /// Builds a trace, sorting by submit time (stable, so equal-time jobs
    /// keep their input order).
    pub fn new(mut jobs: Vec<Job>) -> Self {
        jobs.sort_by_key(|j| j.submit);
        Trace { jobs }
    }

    /// The jobs in submit order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when the trace has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Submission time of the last job (`None` when empty).
    pub fn span(&self) -> Option<SimTime> {
        self.jobs.last().map(|j| j.submit)
    }

    /// Drops cancelled and degenerate jobs (the paper's first filter).
    pub fn filter_usable(self) -> Trace {
        Trace {
            jobs: self.jobs.into_iter().filter(|j| j.is_usable()).collect(),
        }
    }

    /// Drops jobs whose *per-core* memory requirement is below
    /// `min_mib` (the paper's "jobs with small memory requirements" filter).
    pub fn filter_min_memory(self, min_mib: u64) -> Trace {
        Trace {
            jobs: self
                .jobs
                .into_iter()
                .filter(|j| j.memory_per_core_mib() >= min_mib)
                .collect(),
        }
    }

    /// Extracts the jobs submitted in `[from, from + window)` and re-bases
    /// their submit times to start at zero (the paper's "extracted a week").
    pub fn extract_window(self, from: SimTime, window: SimDuration) -> Trace {
        let to = from + window;
        Trace {
            jobs: self
                .jobs
                .into_iter()
                .filter(|j| j.submit >= from && j.submit < to)
                .map(|mut j| {
                    j.submit = SimTime::ZERO + j.submit.saturating_since(from);
                    j
                })
                .collect(),
        }
    }

    /// The paper's normalization: each n-core job becomes n single-core VM
    /// requests, each with `memory/n` MiB and the job's runtime estimate.
    /// VM ids are assigned densely in arrival order starting at
    /// `first_vm_id`.
    pub fn to_vm_requests(&self, first_vm_id: u32) -> Vec<VmRequest> {
        let mut out = Vec::new();
        let mut next = first_vm_id;
        for job in &self.jobs {
            let mem = job.memory_per_core_mib();
            for _ in 0..job.cores.max(1) {
                out.push(VmRequest {
                    spec: VmSpec {
                        id: VmId(next),
                        submit_time: job.submit,
                        resources: ResourceVector::cpu_mem(1, mem),
                        estimated_runtime: job.estimate(),
                        actual_runtime: job.runtime,
                    },
                    job_id: job.id,
                });
                next += 1;
            }
        }
        out
    }
}

/// A single-core VM request produced by the normalization, tagged with the
/// job it came from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmRequest {
    /// The request as the simulator consumes it.
    pub spec: VmSpec,
    /// Originating job number (for trace-level accounting).
    pub job_id: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobStatus;

    fn job(id: u64, submit: u64, runtime: u64, cores: u32, mem: u64, status: JobStatus) -> Job {
        Job {
            id,
            submit: SimTime::from_secs(submit),
            runtime: SimDuration::from_secs(runtime),
            cores,
            memory_mib: mem,
            requested_runtime: SimDuration::from_secs(runtime + 100),
            status,
        }
    }

    #[test]
    fn new_sorts_by_submit() {
        let t = Trace::new(vec![
            job(2, 50, 10, 1, 100, JobStatus::Completed),
            job(1, 10, 10, 1, 100, JobStatus::Completed),
        ]);
        let ids: Vec<u64> = t.jobs().iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(t.span(), Some(SimTime::from_secs(50)));
    }

    #[test]
    fn filter_usable_drops_cancelled() {
        let t = Trace::new(vec![
            job(1, 0, 10, 1, 100, JobStatus::Completed),
            job(2, 1, 10, 1, 100, JobStatus::Cancelled),
            job(3, 2, 0, 1, 100, JobStatus::Completed),
        ])
        .filter_usable();
        assert_eq!(t.len(), 1);
        assert_eq!(t.jobs()[0].id, 1);
    }

    #[test]
    fn filter_min_memory_uses_per_core_memory() {
        let t = Trace::new(vec![
            // 1024 MiB over 4 cores = 256 MiB/core.
            job(1, 0, 10, 4, 1_024, JobStatus::Completed),
            // 1024 MiB over 1 core = 1024 MiB/core.
            job(2, 1, 10, 1, 1_024, JobStatus::Completed),
        ])
        .filter_min_memory(512);
        assert_eq!(t.len(), 1);
        assert_eq!(t.jobs()[0].id, 2);
    }

    #[test]
    fn extract_window_rebases_times() {
        let day = 86_400;
        let t = Trace::new(vec![
            job(1, day - 1, 10, 1, 100, JobStatus::Completed),
            job(2, day, 10, 1, 100, JobStatus::Completed),
            job(3, day + 500, 10, 1, 100, JobStatus::Completed),
            job(4, 2 * day, 10, 1, 100, JobStatus::Completed),
        ])
        .extract_window(SimTime::from_days(1), SimDuration::DAY);
        let got: Vec<(u64, u64)> = t
            .jobs()
            .iter()
            .map(|j| (j.id, j.submit.as_secs()))
            .collect();
        assert_eq!(got, vec![(2, 0), (3, 500)]);
    }

    #[test]
    fn vm_requests_split_cores_and_memory() {
        let t = Trace::new(vec![job(7, 100, 3_600, 4, 2_048, JobStatus::Completed)]);
        let reqs = t.to_vm_requests(10);
        assert_eq!(reqs.len(), 4);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.spec.id, VmId(10 + i as u32));
            assert_eq!(r.spec.resources, ResourceVector::cpu_mem(1, 512));
            assert_eq!(r.spec.submit_time, SimTime::from_secs(100));
            assert_eq!(r.spec.actual_runtime, SimDuration::from_secs(3_600));
            assert_eq!(r.spec.estimated_runtime, SimDuration::from_secs(3_700));
            assert_eq!(r.job_id, 7);
        }
    }

    #[test]
    fn vm_request_count_equals_total_cores() {
        let t = Trace::new(vec![
            job(1, 0, 10, 2, 100, JobStatus::Completed),
            job(2, 1, 10, 3, 100, JobStatus::Completed),
        ]);
        assert_eq!(t.to_vm_requests(0).len(), 5);
    }

    #[test]
    fn empty_trace_behaviour() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.span(), None);
        assert!(t.to_vm_requests(0).is_empty());
    }
}
