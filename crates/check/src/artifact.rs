//! Failure artifacts: everything needed to re-execute a failing chaos cell.
//!
//! When a cell (engine × workload × seed) fails — a protocol panic, an
//! invariant assertion, or an oracle mismatch — the harness dumps a JSON
//! artifact carrying the seed, the complete workload spec, the engine label,
//! the failure message, and the per-thread schedule-decision traces. The
//! artifact is self-contained: `chaos_smoke --reproduce <file>` rebuilds the
//! exact run from it (same spec, same seed, same decision streams), and the
//! shrinker replays reduced variants of the traces against it.

use std::io;
use std::path::{Path, PathBuf};

use drink_runtime::ThreadTrace;
use drink_workloads::WorkloadSpec;
use serde::{Deserialize, Serialize};

use crate::chaos::TraceStep;

/// A reproducible description of one failing chaos run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FailureArtifact {
    /// The chaos seed (also the workload-spec seed in the smoke matrix).
    pub seed: u64,
    /// The engine label (as in `EngineKind::label`, or an oracle name).
    pub engine: String,
    /// The complete workload spec (self-contained: no preset lookup needed).
    pub spec: WorkloadSpec,
    /// The failure: panic message(s) or oracle mismatch description.
    pub failure: String,
    /// Per-thread schedule-decision traces recorded up to the failure.
    pub traces: Vec<Vec<TraceStep>>,
    /// Per-thread protocol-event timelines (the last ring-capacity events
    /// each thread recorded before the failure; see `drink_runtime::trace`).
    pub events: Vec<ThreadTrace>,
}

impl FailureArtifact {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("artifact serializes")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("malformed artifact: {e}"))
    }

    /// Read an artifact file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&text)
    }

    /// Write this artifact under `dir` as
    /// `<workload>-<engine>-<seed-hex>.json` and return the path.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let slug: String = format!("{}-{}", self.spec.name, self.engine)
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("{slug}-{:016x}.json", self.seed));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Total recorded decisions across all threads.
    pub fn trace_len(&self) -> usize {
        self.traces.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::Decision;
    use drink_runtime::SchedPoint;

    fn sample() -> FailureArtifact {
        FailureArtifact {
            seed: 0xDEAD_BEEF,
            engine: "Hybrid tracking".into(),
            spec: drink_workloads::chaos_mix(0xDEAD_BEEF),
            failure: "T2 about to publish BLOCKED while holding pessimistic locks".into(),
            traces: vec![
                vec![TraceStep {
                    point: SchedPoint::MonitorPark,
                    decision: Decision::Sleep(120),
                }],
                vec![],
            ],
            events: vec![drink_runtime::ThreadTrace {
                tid: 0,
                events: vec![drink_runtime::TraceRecord {
                    ts_ns: 41,
                    kind: drink_runtime::Event::CoordRequestSent,
                    arg: 2,
                }],
            }],
        }
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let a = sample();
        let b = FailureArtifact::from_json(&a.to_json()).unwrap();
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.engine, b.engine);
        assert_eq!(a.failure, b.failure);
        assert_eq!(a.traces, b.traces);
        assert_eq!(a.events, b.events);
        assert_eq!(a.spec.name, b.spec.name);
        assert_eq!(a.spec.threads, b.spec.threads);
        assert_eq!(a.spec.ops(0), b.spec.ops(0), "spec round-trips op-exactly");
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join(format!("drink-check-{}", std::process::id()));
        let a = sample();
        let path = a.save(&dir).unwrap();
        assert!(path.file_name().unwrap().to_str().unwrap().contains("chaosMix"));
        let b = FailureArtifact::load(&path).unwrap();
        assert_eq!(b.trace_len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
