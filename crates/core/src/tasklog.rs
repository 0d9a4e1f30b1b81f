//! Per-task cost records — a view over `adm-trace` spans.
//!
//! Every subdomain meshing task runs inside a span named for its
//! [`TaskKind`], carrying its payload size and triangle count as span
//! args. [`TaskLog::from_trace`] rebuilds the record list from a finished
//! trace, so the scaling benches feed `adm-simnet` exactly the tasks that
//! were traced and regenerate the paper's Figures 11/12 on hardware that
//! cannot run 256 ranks. Under the threaded transport the tracer's clock
//! is wall time; under the simulated transport it is virtual time, which
//! makes the records (and the whole trace) replay-stable.

use adm_trace::Tracer;

/// What kind of work a task was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Triangulating one boundary-layer subdomain.
    BlTriangulate,
    /// Refining one decoupled inviscid subdomain.
    InviscidRefine,
    /// Refining the near-body subdomain.
    NearBodyRefine,
    /// Boundary-layer construction (normals, rays, intersection
    /// resolution, point insertion) — parallel across ranks in the paper
    /// (each process owns a portion of the surface vertices, §II.B).
    BlBuild,
    /// Recursive decomposition / decoupling — modeled by the simulator's
    /// tree-distribution phase.
    Decompose,
    /// Final merge / global mesh assembly — output-side work the paper
    /// excludes from its timings (the production mesh stays distributed).
    Merge,
    /// The driver's serial setup phase (sizing, seed tasks), less the
    /// task spans nested in it — the boundary-layer build — which count
    /// under their own kinds.
    Serial,
}

impl TaskKind {
    /// Stable span name for this kind (also the reverse key used by
    /// [`TaskLog::from_trace`]).
    pub fn span_name(self) -> &'static str {
        match self {
            TaskKind::BlTriangulate => "task.bl_triangulate",
            TaskKind::InviscidRefine => "task.inviscid_refine",
            TaskKind::NearBodyRefine => "task.nearbody_refine",
            TaskKind::BlBuild => "phase.bl_build",
            TaskKind::Decompose => "phase.decompose",
            TaskKind::Merge => "phase.merge",
            TaskKind::Serial => "phase.setup",
        }
    }

    /// Inverse of [`TaskKind::span_name`].
    pub fn from_span_name(name: &str) -> Option<TaskKind> {
        Some(match name {
            "task.bl_triangulate" => TaskKind::BlTriangulate,
            "task.inviscid_refine" => TaskKind::InviscidRefine,
            "task.nearbody_refine" => TaskKind::NearBodyRefine,
            "phase.bl_build" => TaskKind::BlBuild,
            "phase.decompose" => TaskKind::Decompose,
            "phase.merge" => TaskKind::Merge,
            "phase.setup" => TaskKind::Serial,
            _ => return None,
        })
    }
}

/// One measured task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRecord {
    /// Task category.
    pub kind: TaskKind,
    /// Measured time in seconds (wall or virtual, per the tracer clock).
    pub cost_s: f64,
    /// Approximate serialized payload in bytes (what a work transfer
    /// would move).
    pub bytes: u64,
    /// Triangles produced.
    pub triangles: u64,
}

/// Collected task records for one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct TaskLog {
    /// All records in span-open order.
    pub records: Vec<TaskRecord>,
}

impl TaskLog {
    /// Rebuilds a record list from a finished trace: every closed span
    /// whose name maps to a [`TaskKind`] becomes one record, in span-open
    /// order, with `bytes`/`triangles` recovered from span args. A
    /// [`TaskKind::Serial`] record's cost excludes the task spans directly
    /// nested in it on its lane, so no time is counted twice.
    pub fn from_trace(tracer: &Tracer) -> Self {
        let snap = tracer.snapshot();
        let mut log = TaskLog::default();
        for span in snap.spans.iter().filter(|s| s.closed()) {
            if let Some(kind) = TaskKind::from_span_name(&span.name) {
                let arg = |key: &str| {
                    span.args
                        .iter()
                        .find(|(k, _)| *k == key)
                        .map_or(0, |(_, v)| *v)
                };
                let mut cost = span.duration();
                if kind == TaskKind::Serial {
                    for inner in snap.spans.iter().filter(|s| {
                        s.closed()
                            && s.track == span.track
                            && s.depth == span.depth + 1
                            && s.start_ns >= span.start_ns
                            && s.end_ns <= span.end_ns
                            && TaskKind::from_span_name(&s.name).is_some()
                    }) {
                        cost = cost.saturating_sub(inner.duration());
                    }
                }
                log.records.push(TaskRecord {
                    kind,
                    cost_s: cost.as_secs_f64(),
                    bytes: arg("bytes"),
                    triangles: arg("triangles"),
                });
            }
        }
        log
    }

    /// Total measured time of the given kind.
    pub fn total_s(&self, kind: TaskKind) -> f64 {
        self.records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.cost_s)
            .sum()
    }

    /// Records of the per-subdomain kinds (the simulator's task pool).
    pub fn parallel_tasks(&self) -> Vec<TaskRecord> {
        self.records
            .iter()
            .filter(|r| {
                matches!(
                    r.kind,
                    TaskKind::BlTriangulate | TaskKind::InviscidRefine | TaskKind::NearBodyRefine
                )
            })
            .copied()
            .collect()
    }

    /// Total triangles across all records.
    pub fn total_triangles(&self) -> u64 {
        self.records.iter().map(|r| r.triangles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm_trace::{check_well_formed, Track};

    #[test]
    fn from_trace_rebuilds_records_from_task_spans() {
        let tracer = Tracer::wall();
        let span = |kind: TaskKind, bytes, triangles| {
            tracer
                .span(Track::ROOT, kind.span_name())
                .close_with(&[("bytes", bytes), ("triangles", triangles)]);
        };
        span(TaskKind::BlTriangulate, 16, 3);
        span(TaskKind::NearBodyRefine, 32, 5);
        // A span with a non-task name is ignored by the rebuild.
        tracer.span(Track::ROOT, "other").close();
        check_well_formed(&tracer.snapshot()).unwrap();
        let log = TaskLog::from_trace(&tracer);
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.records[0].kind, TaskKind::BlTriangulate);
        assert_eq!(log.records[0].bytes, 16);
        assert_eq!(log.records[0].triangles, 3);
        assert!(log.records[0].cost_s >= 0.0);
        assert_eq!(log.records[1].kind, TaskKind::NearBodyRefine);
        assert_eq!(log.records[1].triangles, 5);
    }

    #[test]
    fn span_name_round_trip() {
        for kind in [
            TaskKind::BlTriangulate,
            TaskKind::InviscidRefine,
            TaskKind::NearBodyRefine,
            TaskKind::BlBuild,
            TaskKind::Decompose,
            TaskKind::Merge,
            TaskKind::Serial,
        ] {
            assert_eq!(TaskKind::from_span_name(kind.span_name()), Some(kind));
        }
        assert_eq!(TaskKind::from_span_name("nope"), None);
    }

    #[test]
    fn totals_by_kind() {
        let mut log = TaskLog::default();
        log.records.push(TaskRecord {
            kind: TaskKind::Serial,
            cost_s: 1.0,
            bytes: 0,
            triangles: 0,
        });
        log.records.push(TaskRecord {
            kind: TaskKind::InviscidRefine,
            cost_s: 2.0,
            bytes: 10,
            triangles: 100,
        });
        log.records.push(TaskRecord {
            kind: TaskKind::InviscidRefine,
            cost_s: 3.0,
            bytes: 20,
            triangles: 200,
        });
        assert_eq!(log.total_s(TaskKind::InviscidRefine), 5.0);
        assert_eq!(log.parallel_tasks().len(), 2);
        assert_eq!(log.total_triangles(), 300);
    }
}
