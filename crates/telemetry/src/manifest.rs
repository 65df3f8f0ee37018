//! Per-run provenance records.
//!
//! The experiment runner writes one [`RunManifest`] JSON line per grid
//! cell next to each CSV it produces (`<experiment>.manifest.jsonl`), so
//! every figure stays traceable to the exact (seed, topology, scenario)
//! that produced it.

use crate::json::JsonObject;

/// Everything needed to reproduce (and sanity-check) one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunManifest {
    /// The grid-cell label (experiment-chosen, e.g. `"fig7"`).
    pub label: String,
    /// Topology name (e.g. `"Topo1"`).
    pub topology: String,
    /// The experiment's scenario-identity hash (seeds derive from it).
    pub scenario_id: u64,
    /// Replica index within the grid cell.
    pub run_idx: u64,
    /// The derived RNG seed actually used.
    pub seed: u64,
    /// One-line scenario summary (duration, population, BF geometry).
    pub scenario: String,
    /// Simulated events processed by the engine.
    pub sim_events: u64,
    /// High-water mark of the event queue during the run.
    pub peak_queue_depth: u64,
    /// Wall-clock duration of the run in milliseconds (provenance only —
    /// nondeterministic, never compared byte-for-byte).
    pub wall_ms: u64,
    /// Packets dropped because the forwarding state pointed at a face the
    /// topology no longer backs.
    pub drops_dangling_face: u64,
    /// Replies dropped because the reverse face disappeared mid-flight.
    pub drops_reverse_face: u64,
    /// Packets eaten by the fault plan's loss model.
    pub drops_lossy: u64,
    /// Packets dropped on links scheduled down by the fault plan.
    pub drops_link_down: u64,
    /// Packets dropped at nodes crashed by the fault plan.
    pub drops_node_down: u64,
    /// Packets rejected by the per-client token-bucket rate limit.
    pub drops_rate_limited: u64,
    /// Packets rejected by the per-face fairness cap.
    pub drops_face_capped: u64,
    /// Pending records evicted by a bounded PIT.
    pub drops_pit_full: u64,
    /// Shard (worker-thread) count — 1 for a sequential run.
    pub shards: u64,
    /// Links crossing shard boundaries (0 for a sequential run).
    pub edge_cut: u64,
    /// Synchronization epochs executed (0 for a sequential run).
    pub epochs: u64,
    /// Engine events processed per shard (one entry for sequential).
    pub per_shard_events: Vec<u64>,
    /// Engine queue high-water mark per shard (one entry for sequential).
    pub per_shard_peak_queue: Vec<u64>,
    /// PIT-record high-water mark per shard (one entry for sequential).
    pub per_shard_peak_pit: Vec<u64>,
    /// Content-store high-water mark per shard (one entry for sequential).
    pub per_shard_peak_cs: Vec<u64>,
    /// Tags issued to principals that still held an unexpired tag
    /// (issuance/renewal churn at the providers).
    pub tag_renewals: u64,
    /// Full signature re-validations forced by validation-cache churn —
    /// the router had already validated the tag, but a reset/rotation
    /// evicted the registration (0 unless the scenario tracks them).
    pub revalidations: u64,
    /// Generation rotations across all routers (0 under the
    /// monolithic-reset cache policy).
    pub bf_rotations: u64,
}

impl RunManifest {
    /// Keys every manifest line must carry (checked by the CI smoke run).
    pub const REQUIRED_KEYS: [&'static str; 27] = [
        "label",
        "topology",
        "scenario_id",
        "run_idx",
        "seed",
        "scenario",
        "sim_events",
        "peak_queue_depth",
        "wall_ms",
        "drops_dangling_face",
        "drops_reverse_face",
        "drops_lossy",
        "drops_link_down",
        "drops_node_down",
        "drops_rate_limited",
        "drops_face_capped",
        "drops_pit_full",
        "shards",
        "edge_cut",
        "epochs",
        "per_shard_events",
        "per_shard_peak_queue",
        "per_shard_peak_pit",
        "per_shard_peak_cs",
        "tag_renewals",
        "revalidations",
        "bf_rotations",
    ];

    /// Renders one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("label", &self.label)
            .field_str("topology", &self.topology)
            .field_u64("scenario_id", self.scenario_id)
            .field_u64("run_idx", self.run_idx)
            .field_u64("seed", self.seed)
            .field_str("scenario", &self.scenario)
            .field_u64("sim_events", self.sim_events)
            .field_u64("peak_queue_depth", self.peak_queue_depth)
            .field_u64("wall_ms", self.wall_ms)
            .field_u64("drops_dangling_face", self.drops_dangling_face)
            .field_u64("drops_reverse_face", self.drops_reverse_face)
            .field_u64("drops_lossy", self.drops_lossy)
            .field_u64("drops_link_down", self.drops_link_down)
            .field_u64("drops_node_down", self.drops_node_down)
            .field_u64("drops_rate_limited", self.drops_rate_limited)
            .field_u64("drops_face_capped", self.drops_face_capped)
            .field_u64("drops_pit_full", self.drops_pit_full)
            .field_u64("shards", self.shards)
            .field_u64("edge_cut", self.edge_cut)
            .field_u64("epochs", self.epochs)
            .field_u64_array("per_shard_events", &self.per_shard_events)
            .field_u64_array("per_shard_peak_queue", &self.per_shard_peak_queue)
            .field_u64_array("per_shard_peak_pit", &self.per_shard_peak_pit)
            .field_u64_array("per_shard_peak_cs", &self.per_shard_peak_cs)
            .field_u64("tag_renewals", self.tag_renewals)
            .field_u64("revalidations", self.revalidations)
            .field_u64("bf_rotations", self.bf_rotations);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_required_key() {
        let m = RunManifest {
            label: "fig7".into(),
            topology: "Topo1".into(),
            scenario_id: 42,
            run_idx: 1,
            seed: 0xDEAD,
            scenario: "duration=60s clients=10".into(),
            sim_events: 1000,
            peak_queue_depth: 37,
            wall_ms: 12,
            drops_dangling_face: 0,
            drops_reverse_face: 0,
            drops_lossy: 3,
            drops_link_down: 2,
            drops_node_down: 1,
            drops_rate_limited: 7,
            drops_face_capped: 6,
            drops_pit_full: 5,
            shards: 4,
            edge_cut: 12,
            epochs: 900,
            per_shard_events: vec![250, 250, 250, 250],
            per_shard_peak_queue: vec![10, 9, 11, 8],
            per_shard_peak_pit: vec![4, 3, 5, 2],
            per_shard_peak_cs: vec![6, 6, 7, 5],
            tag_renewals: 13,
            revalidations: 9,
            bf_rotations: 21,
        };
        let line = m.to_json_line();
        for key in RunManifest::REQUIRED_KEYS {
            assert!(line.contains(&format!("\"{key}\":")), "{key} in {line}");
        }
        assert!(line.starts_with('{') && line.ends_with('}'));
    }
}
