//! Standard Workload Format (SWF) reader and writer.
//!
//! SWF is the Parallel Workloads Archive's interchange format: one job per
//! line, 18 whitespace-separated numeric fields, `;` starting header and
//! comment lines. The paper's LPC log ships in this format; this module
//! lets the real log be used verbatim while the synthetic generator can
//! also *export* SWF so any external tool sees identical inputs.
//!
//! Field map (1-based, as documented by the archive):
//!
//! | # | Field                    | Use here                        |
//! |---|--------------------------|---------------------------------|
//! | 1 | job number               | [`Job::id`]                     |
//! | 2 | submit time (s)          | [`Job::submit`]                 |
//! | 3 | wait time (s)            | ignored (scheduler-specific)    |
//! | 4 | run time (s)             | [`Job::runtime`]                |
//! | 5 | allocated processors     | [`Job::cores`]                  |
//! | 6 | average CPU time         | ignored                         |
//! | 7 | used memory (KB/proc)    | [`Job::memory_mib`] (total)     |
//! | 8 | requested processors     | fallback for field 5            |
//! | 9 | requested time (s)       | [`Job::requested_runtime`]      |
//! |10 | requested memory         | fallback for field 7            |
//! |11 | status                   | [`Job::status`]                 |
//! |12–18| user/group/app/queue/partition/dependency/think time | ignored |

use crate::job::{Job, JobStatus};
use dvmp_simcore::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::io::{BufRead, Write};

/// A parse failure, with the 1-based line number where it happened.
#[derive(Debug)]
pub struct SwfError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SWF parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SwfError {}

/// `2^64` as an `f64`: the first value a `u64` field cannot hold.
const U64_LIMIT: f64 = 18_446_744_073_709_551_616.0;

fn parse_line(line: &str, lineno: usize) -> Result<Option<Job>, SwfError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with(';') {
        return Ok(None);
    }
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() < 11 {
        return Err(SwfError {
            line: lineno,
            message: format!("expected at least 11 fields, found {}", fields.len()),
        });
    }
    let err = |i: usize, what: &str| SwfError {
        line: lineno,
        message: format!("field {} ({:?}): {what}", i + 1, fields[i]),
    };
    // Every field is read as a finite number; fractions truncate.
    let num = |i: usize| -> Result<f64, SwfError> {
        let v = fields[i]
            .parse::<f64>()
            .map_err(|e| err(i, &e.to_string()))?;
        if v.is_finite() {
            Ok(v.trunc())
        } else {
            Err(err(i, "not a finite number"))
        }
    };
    // A non-negative count or duration: negatives (the archive's −1 for
    // "unknown") read as 0, values past `u64` are errors.
    let count = |i: usize| -> Result<u64, SwfError> {
        let v = num(i)?;
        if v >= U64_LIMIT {
            return Err(err(i, "out of range for u64"));
        }
        Ok(v.max(0.0) as u64)
    };

    let id = count(0)?;
    let submit = count(1)?;
    let runtime = count(3)?;
    let req_time = count(8)?;
    let status = num(10)?;
    if status.abs() >= U64_LIMIT / 2.0 {
        return Err(err(10, "out of range for i64"));
    }

    // Processors: allocated, else requested, else unknown (0).
    let procs = if num(4)? > 0.0 { 4 } else { 7 };
    let cores = match u32::try_from(count(procs)?) {
        Ok(cores) => cores,
        Err(_) => return Err(err(procs, "out of range for u32")),
    };
    // Memory fields are KB per processor; −1 means unknown. Fall back from
    // used to requested.
    let mem_field = if num(6)? > 0.0 { 6 } else { 9 };
    let memory_mib = (count(mem_field)? / 1_024)
        .checked_mul(u64::from(cores.max(1)))
        .ok_or_else(|| {
            err(
                mem_field,
                "total memory (per processor × processors) overflows u64",
            )
        })?;

    Ok(Some(Job {
        id,
        submit: SimTime::from_secs(submit),
        runtime: SimDuration::from_secs(runtime),
        cores,
        memory_mib,
        requested_runtime: SimDuration::from_secs(req_time),
        status: JobStatus::from_swf(status as i64),
    }))
}

/// Parses an SWF document from a reader. Comment and header lines are
/// skipped; any malformed data line aborts with a positioned error.
pub fn read_swf<R: BufRead>(reader: R) -> Result<Vec<Job>, SwfError> {
    let mut jobs = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| SwfError {
            line: i + 1,
            message: format!("I/O error: {e}"),
        })?;
        if let Some(job) = parse_line(&line, i + 1)? {
            jobs.push(job);
        }
    }
    Ok(jobs)
}

/// Parses an SWF document from a string.
pub fn parse_swf(text: &str) -> Result<Vec<Job>, SwfError> {
    let mut jobs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if let Some(job) = parse_line(line, i + 1)? {
            jobs.push(job);
        }
    }
    Ok(jobs)
}

/// Renders jobs as an SWF document (18 fields; unknown fields written as
/// −1 per the archive convention). The inverse of [`parse_swf`] for the
/// fields this crate models.
pub fn to_swf_string(jobs: &[Job], header_comment: &str) -> String {
    let mut out = String::new();
    for line in header_comment.lines() {
        let _ = writeln!(out, "; {line}");
    }
    for j in jobs {
        let mem_kb_per_proc = if j.cores > 0 {
            (j.memory_mib * 1_024) / j.cores as u64
        } else {
            0
        };
        let _ = writeln!(
            out,
            "{} {} -1 {} {} -1 {} {} {} -1 {} -1 -1 -1 -1 -1 -1 -1",
            j.id,
            j.submit.as_secs(),
            j.runtime.as_secs(),
            j.cores,
            mem_kb_per_proc,
            j.cores,
            j.requested_runtime.as_secs(),
            j.status.to_swf(),
        );
    }
    out
}

/// Writes jobs as SWF to an `io::Write`.
pub fn write_swf<W: Write>(mut w: W, jobs: &[Job], header_comment: &str) -> std::io::Result<()> {
    w.write_all(to_swf_string(jobs, header_comment).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; SWF header
; MaxJobs: 3
1 0 5 3600 4 -1 524288 4 7200 -1 1 1 1 -1 1 -1 -1 -1
2 60 0 120 1 -1 -1 1 600 262144 5 1 1 -1 1 -1 -1 -1
3 120 2 86400 2 -1 1048576 2 90000 -1 0 2 1 -1 2 -1 -1 -1
";

    #[test]
    fn parses_sample_jobs() {
        let jobs = parse_swf(SAMPLE).unwrap();
        assert_eq!(jobs.len(), 3);

        let j1 = &jobs[0];
        assert_eq!(j1.id, 1);
        assert_eq!(j1.submit.as_secs(), 0);
        assert_eq!(j1.runtime.as_secs(), 3_600);
        assert_eq!(j1.cores, 4);
        // 524288 KB/proc = 512 MiB/proc × 4 procs = 2048 MiB total.
        assert_eq!(j1.memory_mib, 2_048);
        assert_eq!(j1.requested_runtime.as_secs(), 7_200);
        assert_eq!(j1.status, JobStatus::Completed);

        let j2 = &jobs[1];
        assert_eq!(j2.status, JobStatus::Cancelled);
        // Used memory unknown (−1): falls back to requested 262144 KB = 256 MiB.
        assert_eq!(j2.memory_mib, 256);

        let j3 = &jobs[2];
        assert_eq!(j3.status, JobStatus::Failed);
        assert_eq!(j3.memory_mib, 2_048);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let jobs = parse_swf("; only comments\n\n;\n").unwrap();
        assert!(jobs.is_empty());
    }

    #[test]
    fn reports_positioned_errors() {
        let err = parse_swf("1 0 5\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("11 fields"));

        let err = parse_swf("; ok\nx 0 0 1 1 -1 1 1 1 -1 1\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn accepts_fractional_fields() {
        // Some archive logs carry fractional seconds; they truncate.
        let jobs = parse_swf("1 10.7 0 99.9 1 -1 1024 1 100 -1 1\n").unwrap();
        assert_eq!(jobs[0].submit.as_secs(), 10);
        assert_eq!(jobs[0].runtime.as_secs(), 99);
    }

    #[test]
    fn falls_back_to_requested_processors() {
        let jobs = parse_swf("1 0 0 100 -1 -1 1024 8 100 -1 1\n").unwrap();
        assert_eq!(jobs[0].cores, 8);
    }

    #[test]
    fn round_trips_through_writer() {
        let jobs = parse_swf(SAMPLE).unwrap();
        let text = to_swf_string(&jobs, "round-trip test");
        assert!(text.starts_with("; round-trip test\n"));
        let back = parse_swf(&text).unwrap();
        assert_eq!(back.len(), jobs.len());
        for (a, b) in jobs.iter().zip(&back) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.submit, b.submit);
            assert_eq!(a.runtime, b.runtime);
            assert_eq!(a.cores, b.cores);
            assert_eq!(a.requested_runtime, b.requested_runtime);
            // Memory round-trips up to the KiB→MiB truncation.
            assert_eq!(a.memory_mib, b.memory_mib);
        }
    }

    /// An 11-field data line with `value` in 1-based field `field`.
    fn line_with(field: usize, value: &str) -> String {
        let mut fields = ["1", "0", "0", "10", "4", "-1", "1024", "4", "10", "-1", "1"];
        fields[field - 1] = value;
        fields.join(" ") + "\n"
    }

    fn error_for(field: usize, value: &str) -> SwfError {
        let err = parse_swf(&format!("; header\n{}", line_with(field, value)))
            .expect_err("out-of-range field must be rejected");
        assert_eq!(err.line, 2, "{err}");
        assert!(err.message.contains(&format!("field {field}")), "{err}");
        err
    }

    #[test]
    fn rejects_non_finite_fields() {
        for value in ["NaN", "inf", "-inf"] {
            let err = error_for(2, value);
            assert!(err.message.contains("finite"), "{err}");
        }
        error_for(5, "NaN");
        error_for(7, "inf");
    }

    #[test]
    fn rejects_fields_past_their_type() {
        // Submit, run and requested time and the job number are u64.
        for field in [1, 2, 4, 9] {
            let err = error_for(field, "1e300");
            assert!(err.message.contains("u64"), "{err}");
        }
        // Processors are u32: 2^32 + 1 must not truncate to 1.
        let err = error_for(5, "4294967297");
        assert!(err.message.contains("u32"), "{err}");
        let err = parse_swf("1 0 0 10 -1 -1 1024 4294967297 10 -1 1\n").unwrap_err();
        assert!(err.message.contains("field 8"), "{err}");
        error_for(11, "1e30");
    }

    #[test]
    fn rejects_an_overflowing_memory_product() {
        // ~8.8e15 MiB per processor × 2^32 − 1 processors overflows u64.
        let err = parse_swf("1 0 0 10 4294967295 -1 9000000000000000000 1 10 -1 1\n").unwrap_err();
        assert!(err.message.contains("field 7"), "{err}");
        assert!(err.message.contains("overflows"), "{err}");
        // The largest representable values still parse.
        let jobs = parse_swf("1 0 0 10 4294967295 -1 1024 1 10 -1 1\n").unwrap();
        assert_eq!(
            (jobs[0].cores, jobs[0].memory_mib),
            (u32::MAX, u64::from(u32::MAX))
        );
    }

    /// Field values the arbitrary-line property mixes in: the archive's
    /// "unknown", boundaries of every target type, non-finite values and
    /// garbage.
    const SPECIAL_FIELDS: [&str; 11] = [
        "-1",
        "0",
        "NaN",
        "inf",
        "-inf",
        "1e300",
        "-1e300",
        "4294967297",
        "18446744073709551616",
        "x",
        "1.5e3",
    ];

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary data lines never panic the reader, and every line
            /// it accepts yields exactly the fields it reads: truncated,
            /// non-negative, in range.
            #[test]
            fn arbitrary_lines_never_panic(
                fields in prop::collection::vec(
                    prop_oneof![
                        (-1e6f64..1e6).prop_map(|v| v.to_string()),
                        any::<u64>().prop_map(|v| v.to_string()),
                        (0usize..SPECIAL_FIELDS.len()).prop_map(|i| SPECIAL_FIELDS[i].to_string()),
                    ],
                    11..19,
                )
            ) {
                let line = fields.join(" ");
                if let Ok(jobs) = parse_swf(&line) {
                    prop_assert_eq!(jobs.len(), 1);
                    let job = &jobs[0];
                    let read = |i: usize| fields[i].parse::<f64>().expect("accepted field").trunc();
                    let as_count = |v: f64| v.max(0.0) as u64;
                    prop_assert_eq!(job.id, as_count(read(0)));
                    prop_assert_eq!(job.submit.as_secs(), as_count(read(1)));
                    prop_assert_eq!(job.runtime.as_secs(), as_count(read(3)));
                    prop_assert_eq!(job.requested_runtime.as_secs(), as_count(read(8)));
                    let procs = if read(4) > 0.0 { read(4) } else { read(7) };
                    prop_assert_eq!(f64::from(job.cores), procs.max(0.0));
                    let kb = if read(6) > 0.0 { read(6) } else { read(9) };
                    let expected = u128::from(as_count(kb) / 1_024) * u128::from(job.cores.max(1));
                    prop_assert_eq!(u128::from(job.memory_mib), expected);
                }
            }
        }
    }

    #[test]
    fn read_swf_from_reader() {
        let jobs = read_swf(std::io::Cursor::new(SAMPLE)).unwrap();
        assert_eq!(jobs.len(), 3);
    }
}
