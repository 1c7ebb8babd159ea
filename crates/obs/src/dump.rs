//! Flight-recorder dumps: the serializable "black box" attached to
//! checked-mode oracle violations.

use crate::record::Record;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Context for the failure that triggered the dump.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DumpHeader {
    /// Human-readable trigger, e.g. the first violation's invariant + detail.
    pub reason: String,
    /// Engine event ordinal of the failing check.
    pub seq: u64,
    /// Simulation time (whole seconds) of the failing check.
    pub sim_time_s: u64,
    /// `Datacenter::state_digest()` at capture.
    pub state_digest: u64,
    /// Records captured below.
    pub captured: u64,
    /// Ring capacity that bounded the capture.
    pub ring_capacity: u64,
}

/// One record, decoded to self-describing form for JSON consumers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DumpRecord {
    pub stamp: u64,
    pub time_s: u64,
    pub ordinal: u64,
    pub kind: String,
    pub phase: String,
    pub a: u64,
    pub b: u64,
}

impl From<&Record> for DumpRecord {
    fn from(r: &Record) -> DumpRecord {
        DumpRecord {
            stamp: r.stamp,
            time_s: r.time_s,
            ordinal: r.ordinal,
            kind: r.kind.name().to_string(),
            phase: r.phase.name().to_string(),
            a: r.a,
            b: r.b,
        }
    }
}

/// The last-N-records black box shipped with a checked-mode failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightDump {
    pub header: DumpHeader,
    /// Records in emission order — oldest surviving record first.
    pub records: Vec<DumpRecord>,
}

/// Drain the calling thread's ring into a dump stamped with the failing
/// check's identity.
pub fn capture_flight_dump(
    reason: &str,
    seq: u64,
    sim_time_s: u64,
    state_digest: u64,
) -> FlightDump {
    crate::counters::bump(|c| c.flight_dumps += 1);
    let records: Vec<DumpRecord> = crate::drain_records()
        .iter()
        .map(DumpRecord::from)
        .collect();
    FlightDump {
        header: DumpHeader {
            reason: reason.to_string(),
            seq,
            sim_time_s,
            state_digest,
            captured: records.len() as u64,
            ring_capacity: crate::ring_capacity() as u64,
        },
        records,
    }
}

impl FlightDump {
    /// Compact text rendering: header plus the trailing `tail` records.
    pub fn render(&self, tail: usize) -> String {
        let h = &self.header;
        let mut out = format!(
            "flight recorder: {} records (ring cap {}) around event #{} @ {}s \
             (digest {:016x}) — {}\n",
            h.captured, h.ring_capacity, h.seq, h.sim_time_s, h.state_digest, h.reason
        );
        let skip = self.records.len().saturating_sub(tail);
        if skip > 0 {
            let _ = writeln!(out, "  … {skip} older records elided …");
        }
        for r in &self.records[skip..] {
            let _ = writeln!(
                out,
                "  [{:>8}] t={:>8}s ev#{:<9} {:<21} phase={:<14} a={} b={}",
                r.stamp, r.time_s, r.ordinal, r.kind, r.phase, r.a, r.b
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_elides_old_records() {
        let rec = |stamp| DumpRecord {
            stamp,
            time_s: stamp * 10,
            ordinal: stamp,
            kind: "mark".to_string(),
            phase: "none".to_string(),
            a: 0,
            b: 0,
        };
        let dump = FlightDump {
            header: DumpHeader {
                reason: "capacity: test".to_string(),
                seq: 7,
                sim_time_s: 70,
                state_digest: 0xdead_beef,
                captured: 5,
                ring_capacity: 4096,
            },
            records: (1..=5).map(rec).collect(),
        };
        let text = dump.render(2);
        assert!(text.contains("event #7 @ 70s"), "{text}");
        assert!(text.contains("… 3 older records elided …"), "{text}");
        assert!(text.contains("[       4]"), "{text}");
        let json = serde_json::to_string(&dump).expect("dump serializes");
        let back: FlightDump = serde_json::from_str(&json).expect("dump deserializes");
        assert_eq!(back, dump);
    }
}
