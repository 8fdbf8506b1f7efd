//! The unified Experiment API: one typed request/response pair per driver.
//!
//! Every experiment driver in this module's siblings is a free function with its
//! own signature.  That is fine for in-process callers, but anything that has to
//! route experiments dynamically — the `figures` CLI choosing a subcommand, the
//! `vliw-serve` daemon decoding requests off a socket — needs a single closed
//! vocabulary.  This module provides it:
//!
//! * [`ExperimentRequest`] — a serializable description of *which* experiment to
//!   run, including its parameters (cluster counts for the resource sizing, the
//!   grid preset for the design-space sweep);
//! * [`ExperimentResponse`] — the matching result document, wrapping the
//!   driver's row type;
//! * [`ExperimentRequest::run`] — the one dispatch that turns a request into a
//!   response over a shared [`Session`].  The in-process `figures` run and the
//!   daemon both execute every experiment through it.
//!
//! Both enums are written as JSON objects with an `"experiment"` tag (and read
//! back through the vendored serde `Value` model), so a request written by the
//! CLI client is readable by the daemon and vice versa.  The response payloads
//! reuse the drivers' own row serialization: a client that deserializes a
//! response and re-serializes the rows reproduces the in-process JSON byte for
//! byte (the vendored `serde_json` prints floats in shortest-round-trip form,
//! so nothing is lost in transit).

use std::io;

use serde::{de, json, Deserialize, Serialize, Value};
use vliw_machine::SweepGrid;

use crate::error::VliwError;
use crate::session::Session;

use super::{
    cluster_resources_experiment, copy_cost_experiment, fig3_experiment, fig4_experiment,
    fig6_experiment, fig8_experiment, fig9_experiment, pruned_sweep_experiment_with,
    simulate_experiment, verify_experiment, Classify, ClusterResourcesRow, CopyCostRow, Fig3Row,
    Fig4Row, Fig6Row, IpcCurvePoint, SimulateReport, SweepReport, VerifyReport,
};

/// A serializable request for one experiment run, including its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentRequest {
    /// Fig. 3 — number of queues required.
    Fig3,
    /// Section 2 — cost of copy insertion.
    CopyCost,
    /// Fig. 4 — II speedup from loop unrolling.
    Fig4,
    /// Fig. 6 — II variation of partitioned schedules.
    Fig6,
    /// Fig. 7 / Section 4 — cluster resource sizing.
    Resources {
        /// Cluster counts to evaluate.
        cluster_counts: Vec<usize>,
    },
    /// Fig. 8 — IPC curve over all loops.
    Fig8,
    /// Fig. 9 — IPC curve over resource-constrained loops.
    Fig9,
    /// Cycle-accurate simulation report.
    Simulate,
    /// Machine design-space sweep.
    Sweep {
        /// Design-space preset to sweep.
        grid: SweepGrid,
        /// How each loop is classified against the storage budgets.
        classify: Classify,
        /// Attach the certificate accounting (the report's `prune` block)
        /// and honour `audit`; the rows are the same either way.
        prune: bool,
        /// Pairs to re-derive through the per-config classification (with
        /// `prune`; at most the grid's (config, loop) pair count).
        audit: usize,
    },
    /// Static verification report.
    Verify,
}

/// The result document matching one [`ExperimentRequest`] variant.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentResponse {
    /// Fig. 3 rows.
    Fig3(Vec<Fig3Row>),
    /// Copy-cost rows.
    CopyCost(Vec<CopyCostRow>),
    /// Fig. 4 rows.
    Fig4(Vec<Fig4Row>),
    /// Fig. 6 rows.
    Fig6(Vec<Fig6Row>),
    /// Cluster-resource rows.
    Resources(Vec<ClusterResourcesRow>),
    /// Fig. 8 IPC curve.
    Fig8(Vec<IpcCurvePoint>),
    /// Fig. 9 IPC curve.
    Fig9(Vec<IpcCurvePoint>),
    /// Simulated-IPC report.
    Simulate(SimulateReport),
    /// Design-space sweep report.
    Sweep(SweepReport),
    /// Static-verification report.
    Verify(VerifyReport),
}

impl ExperimentRequest {
    /// Stable name of the requested experiment (the wire tag).
    pub fn name(&self) -> &'static str {
        match self {
            ExperimentRequest::Fig3 => "fig3",
            ExperimentRequest::CopyCost => "copy_cost",
            ExperimentRequest::Fig4 => "fig4",
            ExperimentRequest::Fig6 => "fig6",
            ExperimentRequest::Resources { .. } => "resources",
            ExperimentRequest::Fig8 => "fig8",
            ExperimentRequest::Fig9 => "fig9",
            ExperimentRequest::Simulate => "simulate",
            ExperimentRequest::Sweep { .. } => "sweep",
            ExperimentRequest::Verify => "verify",
        }
    }

    /// Runs the requested experiment over `session` and wraps its rows.
    ///
    /// Parameters a driver cannot serve are rejected here, before any work,
    /// as [`VliwError::InvalidRequest`]: a zero cluster count, or an audit
    /// sample larger than the sweep's (config, loop) pair count.
    pub fn run(&self, session: &Session) -> Result<ExperimentResponse, VliwError> {
        match self {
            ExperimentRequest::Fig3 => fig3_experiment(session).map(ExperimentResponse::Fig3),
            ExperimentRequest::CopyCost => {
                copy_cost_experiment(session).map(ExperimentResponse::CopyCost)
            }
            ExperimentRequest::Fig4 => fig4_experiment(session).map(ExperimentResponse::Fig4),
            ExperimentRequest::Fig6 => fig6_experiment(session).map(ExperimentResponse::Fig6),
            ExperimentRequest::Resources { cluster_counts } => {
                if cluster_counts.contains(&0) {
                    return Err(VliwError::InvalidRequest(
                        "`resources` cluster counts must be at least 1".to_string(),
                    ));
                }
                cluster_resources_experiment(session, cluster_counts)
                    .map(ExperimentResponse::Resources)
            }
            ExperimentRequest::Fig8 => fig8_experiment(session).map(ExperimentResponse::Fig8),
            ExperimentRequest::Fig9 => fig9_experiment(session).map(ExperimentResponse::Fig9),
            ExperimentRequest::Simulate => {
                simulate_experiment(session).map(ExperimentResponse::Simulate)
            }
            ExperimentRequest::Sweep { grid, classify, prune, audit } => {
                // One driver serves both spellings; without `prune` the
                // accounting block is dropped and `audit` means nothing.
                let audit = if *prune { *audit } else { 0 };
                let mut report = pruned_sweep_experiment_with(session, *grid, *classify, audit)?;
                if !prune {
                    report.prune = None;
                }
                Ok(ExperimentResponse::Sweep(report))
            }
            ExperimentRequest::Verify => verify_experiment(session).map(ExperimentResponse::Verify),
        }
    }
}

impl ExperimentResponse {
    /// Stable name of the experiment that produced this response.
    pub fn name(&self) -> &'static str {
        match self {
            ExperimentResponse::Fig3(_) => "fig3",
            ExperimentResponse::CopyCost(_) => "copy_cost",
            ExperimentResponse::Fig4(_) => "fig4",
            ExperimentResponse::Fig6(_) => "fig6",
            ExperimentResponse::Resources(_) => "resources",
            ExperimentResponse::Fig8(_) => "fig8",
            ExperimentResponse::Fig9(_) => "fig9",
            ExperimentResponse::Simulate(_) => "simulate",
            ExperimentResponse::Sweep(_) => "sweep",
            ExperimentResponse::Verify(_) => "verify",
        }
    }

    /// Renders this response's rows as the driver's text table — the shared
    /// render dispatch behind the CLI's text mode.
    pub fn render_table(&self) -> String {
        match self {
            ExperimentResponse::Fig3(rows) => super::fig3::render(rows).render(),
            ExperimentResponse::CopyCost(rows) => super::copy_cost::render(rows).render(),
            ExperimentResponse::Fig4(rows) => super::fig4::render(rows).render(),
            ExperimentResponse::Fig6(rows) => super::fig6::render(rows).render(),
            ExperimentResponse::Resources(rows) => super::resources::render(rows).render(),
            ExperimentResponse::Fig8(points) | ExperimentResponse::Fig9(points) => {
                super::ipc::render(points).render()
            }
            ExperimentResponse::Simulate(report) => super::simulate::render(&report.rows).render(),
            ExperimentResponse::Sweep(report) => super::sweep::render(&report.rows).render(),
            ExperimentResponse::Verify(report) => super::verify::render(&report.rows).render(),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire form.  The vendored serde derive only covers named-field structs and
// C-like enums, so the two tagged unions are serialized by hand:
// `{"experiment": "<name>", ...params-or-rows}`.
// ---------------------------------------------------------------------------

/// An `"experiment"` tag plus the object's entries, as read off the wire.
type TaggedEntries<'a> = (&'a str, &'a [(String, Value)]);

/// Reads the `"experiment"` tag off a wire object.
fn tag_of(v: &Value) -> Result<TaggedEntries<'_>, de::Error> {
    let entries = v.as_object().ok_or_else(|| de::Error::unexpected("object", v))?;
    match v.get("experiment") {
        Some(Value::String(name)) => Ok((name, entries)),
        Some(other) => Err(de::Error::unexpected("experiment tag", other)),
        None => Err(de::Error::custom("missing field `experiment`")),
    }
}

impl Serialize for ExperimentRequest {
    fn write_json(&self, w: &mut json::Writer<'_>) -> io::Result<()> {
        w.object(|o| {
            o.field("experiment", self.name())?;
            match self {
                ExperimentRequest::Resources { cluster_counts } => {
                    o.field("cluster_counts", cluster_counts)
                }
                ExperimentRequest::Sweep { grid, classify, prune, audit } => {
                    o.field("grid", grid.name())?;
                    // Default values are omitted, so pre-classify (and
                    // pre-prune) clients and daemons keep exchanging
                    // byte-identical requests.
                    if *classify != Classify::default() {
                        o.field("classify", classify.name())?;
                    }
                    if *prune {
                        o.field("prune", &true)?;
                    }
                    if *audit > 0 {
                        o.field("audit", audit)?;
                    }
                    Ok(())
                }
                _ => Ok(()),
            }
        })
    }
}

impl Deserialize for ExperimentRequest {
    fn deserialize(v: &Value) -> Result<Self, de::Error> {
        let (name, entries) = tag_of(v)?;
        match name {
            "fig3" => Ok(ExperimentRequest::Fig3),
            "copy_cost" => Ok(ExperimentRequest::CopyCost),
            "fig4" => Ok(ExperimentRequest::Fig4),
            "fig6" => Ok(ExperimentRequest::Fig6),
            "resources" => Ok(ExperimentRequest::Resources {
                cluster_counts: de::field(entries, "cluster_counts")?,
            }),
            "fig8" => Ok(ExperimentRequest::Fig8),
            "fig9" => Ok(ExperimentRequest::Fig9),
            "simulate" => Ok(ExperimentRequest::Simulate),
            "sweep" => {
                let raw: String = de::field(entries, "grid")?;
                let grid = raw
                    .parse::<SweepGrid>()
                    .map_err(|e| de::Error::custom(format!("field `grid`: {e}")))?;
                // `classify` is optional on the wire (absent = dynamic), so
                // `de::field`'s missing-field error does not apply here.
                let classify = match entries.iter().find(|(k, _)| k == "classify") {
                    None => Classify::default(),
                    Some((_, Value::String(raw))) => raw
                        .parse::<Classify>()
                        .map_err(|e| de::Error::custom(format!("field `classify`: {e}")))?,
                    Some((_, other)) => return Err(de::Error::unexpected("classify mode", other)),
                };
                let prune = de::field::<Option<bool>>(entries, "prune")?.unwrap_or(false);
                let audit = de::field::<Option<u64>>(entries, "audit")?.unwrap_or(0) as usize;
                Ok(ExperimentRequest::Sweep { grid, classify, prune, audit })
            }
            "verify" => Ok(ExperimentRequest::Verify),
            other => Err(de::Error::custom(format!("unknown experiment `{other}`"))),
        }
    }
}

impl Serialize for ExperimentResponse {
    /// The tagged wrapper around the driver's rows or report, which serialize
    /// exactly as the driver's own type does.
    fn write_json(&self, w: &mut json::Writer<'_>) -> io::Result<()> {
        w.object(|o| {
            o.field("experiment", self.name())?;
            match self {
                ExperimentResponse::Fig3(rows) => o.field("rows", rows),
                ExperimentResponse::CopyCost(rows) => o.field("rows", rows),
                ExperimentResponse::Fig4(rows) => o.field("rows", rows),
                ExperimentResponse::Fig6(rows) => o.field("rows", rows),
                ExperimentResponse::Resources(rows) => o.field("rows", rows),
                ExperimentResponse::Fig8(points) => o.field("rows", points),
                ExperimentResponse::Fig9(points) => o.field("rows", points),
                ExperimentResponse::Simulate(report) => o.field("rows", report),
                ExperimentResponse::Sweep(report) => o.field("rows", report),
                ExperimentResponse::Verify(report) => o.field("rows", report),
            }
        })
    }
}

impl Deserialize for ExperimentResponse {
    fn deserialize(v: &Value) -> Result<Self, de::Error> {
        let (name, entries) = tag_of(v)?;
        match name {
            "fig3" => Ok(ExperimentResponse::Fig3(de::field(entries, "rows")?)),
            "copy_cost" => Ok(ExperimentResponse::CopyCost(de::field(entries, "rows")?)),
            "fig4" => Ok(ExperimentResponse::Fig4(de::field(entries, "rows")?)),
            "fig6" => Ok(ExperimentResponse::Fig6(de::field(entries, "rows")?)),
            "resources" => Ok(ExperimentResponse::Resources(de::field(entries, "rows")?)),
            "fig8" => Ok(ExperimentResponse::Fig8(de::field(entries, "rows")?)),
            "fig9" => Ok(ExperimentResponse::Fig9(de::field(entries, "rows")?)),
            "simulate" => Ok(ExperimentResponse::Simulate(de::field(entries, "rows")?)),
            "sweep" => Ok(ExperimentResponse::Sweep(de::field(entries, "rows")?)),
            "verify" => Ok(ExperimentResponse::Verify(de::field(entries, "rows")?)),
            other => Err(de::Error::custom(format!("unknown experiment `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_request() -> Vec<ExperimentRequest> {
        vec![
            ExperimentRequest::Fig3,
            ExperimentRequest::CopyCost,
            ExperimentRequest::Fig4,
            ExperimentRequest::Fig6,
            ExperimentRequest::Resources { cluster_counts: vec![4, 5, 6] },
            ExperimentRequest::Fig8,
            ExperimentRequest::Fig9,
            ExperimentRequest::Simulate,
            ExperimentRequest::Sweep {
                grid: SweepGrid::Small,
                classify: Classify::Dynamic,
                prune: false,
                audit: 0,
            },
            ExperimentRequest::Sweep {
                grid: SweepGrid::Small,
                classify: Classify::Static,
                prune: false,
                audit: 0,
            },
            ExperimentRequest::Sweep {
                grid: SweepGrid::Huge,
                classify: Classify::Static,
                prune: true,
                audit: 64,
            },
            ExperimentRequest::Verify,
        ]
    }

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        for request in every_request() {
            let json = serde_json::to_string(&request).unwrap();
            let back: ExperimentRequest = serde_json::from_str(&json).unwrap();
            assert_eq!(back, request, "{json}");
            assert!(json.contains(&format!("\"experiment\":\"{}\"", request.name())), "{json}");
        }
    }

    #[test]
    fn unknown_or_malformed_requests_are_rejected() {
        assert!(serde_json::from_str::<ExperimentRequest>("{\"experiment\": \"fig5\"}").is_err());
        assert!(serde_json::from_str::<ExperimentRequest>("{\"id\": 3}").is_err());
        assert!(serde_json::from_str::<ExperimentRequest>("[1, 2]").is_err());
        assert!(serde_json::from_str::<ExperimentRequest>(
            "{\"experiment\": \"sweep\", \"grid\": \"tiny\"}"
        )
        .is_err());
        assert!(
            serde_json::from_str::<ExperimentRequest>("{\"experiment\": \"resources\"}").is_err()
        );
        assert!(serde_json::from_str::<ExperimentRequest>(
            "{\"experiment\": \"sweep\", \"grid\": \"small\", \"classify\": \"cycle\"}"
        )
        .is_err());
    }

    #[test]
    fn sweep_requests_without_a_classify_field_default_to_dynamic() {
        // The wire form pre-dates the static mode; old clients must keep
        // working and a default-mode request must serialize without the field.
        let old = "{\"experiment\": \"sweep\", \"grid\": \"small\"}";
        let back: ExperimentRequest = serde_json::from_str(old).unwrap();
        assert_eq!(
            back,
            ExperimentRequest::Sweep {
                grid: SweepGrid::Small,
                classify: Classify::Dynamic,
                prune: false,
                audit: 0,
            }
        );
        let json = serde_json::to_string(&back).unwrap();
        assert!(!json.contains("classify"), "{json}");
        assert!(!json.contains("prune") && !json.contains("audit"), "{json}");
        let static_ = ExperimentRequest::Sweep {
            grid: SweepGrid::Small,
            classify: Classify::Static,
            prune: false,
            audit: 0,
        };
        assert!(serde_json::to_string(&static_).unwrap().contains("\"classify\":\"static\""));
    }

    #[test]
    fn pruned_sweep_requests_carry_their_flags_and_dispatch_to_the_pruned_driver() {
        let json = "{\"experiment\": \"sweep\", \"grid\": \"small\", \"prune\": true, \
                    \"audit\": 8}";
        let request: ExperimentRequest = serde_json::from_str(json).unwrap();
        assert_eq!(
            request,
            ExperimentRequest::Sweep {
                grid: SweepGrid::Small,
                classify: Classify::Dynamic,
                prune: true,
                audit: 8,
            }
        );
        let session = Session::quick(6, 7);
        let response = request.run(&session).unwrap();
        let ExperimentResponse::Sweep(report) = &response else { unreachable!() };
        let prune = report.prune.as_ref().expect("pruned runs must carry accounting");
        assert_eq!(prune.audited, 8);
        assert!(prune.audit_clean());
        // Without `prune` the same driver answers with the same rows and no
        // accounting block.
        let plain = ExperimentRequest::Sweep {
            grid: SweepGrid::Small,
            classify: Classify::Dynamic,
            prune: false,
            audit: 0,
        };
        let ExperimentResponse::Sweep(plain) = plain.run(&session).unwrap() else { unreachable!() };
        assert_eq!(plain.rows, report.rows);
        assert!(plain.prune.is_none());
    }

    #[test]
    fn zero_cluster_counts_are_rejected_before_any_work() {
        let session = Session::quick(4, 3);
        let zero = ExperimentRequest::Resources { cluster_counts: vec![4, 0] };
        assert_eq!(zero.run(&session).unwrap_err().kind(), "invalid_request");
        assert_eq!(session.stats().compilations, 0, "a rejected request must not compile");
    }

    #[test]
    fn dispatch_matches_the_direct_driver_call() {
        let session = Session::quick(8, 5);
        let response = ExperimentRequest::Fig3.run(&session).unwrap();
        let direct = fig3_experiment(&session).unwrap();
        assert_eq!(response, ExperimentResponse::Fig3(direct.clone()));
        assert_eq!(response.name(), "fig3");
        // The wrapped rows re-serialize exactly as the driver's own rows do.
        let via_response = match &response {
            ExperimentResponse::Fig3(rows) => serde_json::to_string_pretty(rows).unwrap(),
            _ => unreachable!(),
        };
        assert_eq!(via_response, serde_json::to_string_pretty(&direct).unwrap());
    }

    #[test]
    fn responses_round_trip_through_the_wire_form() {
        let session = Session::quick(6, 7);
        for request in [
            ExperimentRequest::Fig4,
            ExperimentRequest::Resources { cluster_counts: vec![4] },
            ExperimentRequest::Sweep {
                grid: SweepGrid::Small,
                classify: Classify::Static,
                prune: false,
                audit: 0,
            },
            ExperimentRequest::Verify,
        ] {
            let response = request.run(&session).unwrap();
            let json = serde_json::to_string(&response).unwrap();
            let back: ExperimentResponse = serde_json::from_str(&json).unwrap();
            assert_eq!(back, response, "{}", request.name());
        }
    }

    #[test]
    fn render_dispatch_produces_the_driver_tables() {
        let session = Session::quick(6, 7);
        let response = ExperimentRequest::Fig3.run(&session).unwrap();
        let table = response.render_table();
        assert!(table.contains("FUs"));
        let rows = match &response {
            ExperimentResponse::Fig3(rows) => rows,
            _ => unreachable!(),
        };
        assert_eq!(table, super::super::fig3::render(rows).render());
    }

    #[test]
    fn typed_experiments_report_their_names() {
        // Every response carries the name of the request that produced it.
        let session = Session::quick(2, 1);
        for request in every_request() {
            if matches!(request, ExperimentRequest::Sweep { grid: SweepGrid::Huge, .. }) {
                continue;
            }
            assert_eq!(request.run(&session).unwrap().name(), request.name());
        }
    }
}
