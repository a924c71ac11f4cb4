//! Replayable divergence artifacts.
//!
//! When a sweep finds a divergence, the shrunk reproducer is dumped as a
//! small self-contained JSON document: chain, environment, execution
//! mode, fault plan (DSL text), the exact frames, and what diverged.
//! `speedybox sim --replay <file>` re-runs it byte-for-byte — no seed or
//! generator version is needed to reproduce, because the frames
//! themselves are embedded.

use speedybox_telemetry::json::Json;

use crate::fault::FaultPlan;
use crate::runner::{hex_decode, hex_encode, BugKind, Divergence, SimCase};
use crate::scenario::TraceItem;
use crate::Platform;

/// Artifact format version; bump on breaking layout changes.
pub const ARTIFACT_VERSION: u64 = 1;

/// Serializes a case (plus the divergence that produced it) to JSON text.
#[must_use]
pub fn to_json(case: &SimCase, divergence: Option<&Divergence>) -> String {
    let mut fields = vec![
        ("version".to_string(), Json::Num(ARTIFACT_VERSION.to_string())),
        ("chain".to_string(), Json::Str(case.chain.clone())),
        ("env".to_string(), Json::Str(case.env.as_str().to_string())),
        ("compiled".to_string(), Json::Bool(case.compiled)),
        ("batch".to_string(), Json::Num(case.batch.to_string())),
        ("workers".to_string(), Json::Num(case.workers.max(1).to_string())),
        ("seed".to_string(), Json::Num(case.seed.to_string())),
        ("max_flows".to_string(), Json::Num(case.max_flows.to_string())),
        ("bug".to_string(), case.bug.map_or(Json::Null, |b| Json::Str(b.as_str().to_string()))),
        ("faults".to_string(), Json::Str(case.faults.to_dsl())),
        (
            "trace".to_string(),
            Json::Arr(
                case.items
                    .iter()
                    .map(|item| {
                        Json::Obj(vec![
                            ("i".to_string(), Json::Num(item.orig.to_string())),
                            ("frame".to_string(), Json::Str(hex_encode(&item.frame))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(d) = divergence {
        fields.push((
            "divergence".to_string(),
            Json::Obj(vec![
                ("index".to_string(), Json::Num(d.index.to_string())),
                ("orig".to_string(), Json::Num(d.orig.to_string())),
                ("kind".to_string(), Json::Str(d.kind.as_str().to_string())),
                ("detail".to_string(), Json::Str(d.detail.clone())),
            ]),
        ));
    }
    Json::Obj(fields).render()
}

/// Deserializes an artifact back into a runnable case.
///
/// # Errors
/// Malformed JSON, missing fields, or an unsupported version.
pub fn from_json(text: &str) -> Result<SimCase, String> {
    let root = Json::parse(text)?;
    let version = root.get("version").and_then(Json::as_u64).ok_or("missing artifact version")?;
    if version != ARTIFACT_VERSION {
        return Err(format!("unsupported artifact version {version}"));
    }
    let chain = root.get("chain").and_then(Json::as_str).ok_or("missing chain")?.to_string();
    let env = Platform::parse(root.get("env").and_then(Json::as_str).ok_or("missing env")?)?;
    let compiled = root.get("compiled").and_then(Json::as_bool).ok_or("missing compiled")?;
    let as_size = |v: u64| usize::try_from(v).map_err(|_| "field exceeds usize".to_string());
    let batch = as_size(root.get("batch").and_then(Json::as_u64).ok_or("missing batch")?.max(1))?;
    // Absent in pre-worker artifacts: replay those single-worker.
    let workers = as_size(root.get("workers").and_then(Json::as_u64).unwrap_or(1).max(1))?;
    let seed = root.get("seed").and_then(Json::as_u64).unwrap_or(0);
    // Absent in pre-bounded-table artifacts: replay those unbounded.
    let max_flows = as_size(root.get("max_flows").and_then(Json::as_u64).unwrap_or(0))?;
    let bug = match root.get("bug") {
        None | Some(Json::Null) => None,
        Some(v) => Some(BugKind::parse(v.as_str().ok_or("bug must be a string")?)?),
    };
    let faults = FaultPlan::parse(root.get("faults").and_then(Json::as_str).unwrap_or_default())?;
    let trace = root.get("trace").and_then(Json::as_array).ok_or("missing trace")?;
    let mut items = Vec::with_capacity(trace.len());
    for entry in trace {
        let orig =
            as_size(entry.get("i").and_then(Json::as_u64).ok_or("trace entry missing index")?)?;
        let frame = hex_decode(
            entry.get("frame").and_then(Json::as_str).ok_or("trace entry missing frame")?,
        )?;
        items.push(TraceItem { orig, frame });
    }
    Ok(SimCase { chain, env, compiled, batch, workers, seed, max_flows, bug, items, faults })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::DivergenceKind;
    use crate::scenario::{generate, ScenarioConfig};

    #[test]
    fn artifact_round_trips_a_case() {
        let s = generate(&ScenarioConfig {
            seed: 9,
            chain: "chain1".into(),
            with_faults: true,
            nf_faults: false,
        });
        let case = SimCase {
            chain: "chain1".into(),
            env: Platform::Onvm,
            compiled: false,
            batch: 8,
            workers: 4,
            seed: u64::MAX,
            max_flows: 48,
            bug: Some(BugKind::SkipChecksumFix),
            items: s.items,
            faults: s.faults,
        };
        let d = Divergence {
            index: 3,
            orig: 7,
            kind: DivergenceKind::Bytes,
            detail: "output frames differ".into(),
        };
        let text = to_json(&case, Some(&d));
        let back = from_json(&text).unwrap();
        assert_eq!(back.chain, case.chain);
        assert_eq!(back.env, case.env);
        assert_eq!(back.compiled, case.compiled);
        assert_eq!(back.batch, case.batch);
        assert_eq!(back.workers, case.workers);
        assert_eq!(back.seed, case.seed);
        assert_eq!(back.max_flows, case.max_flows);
        assert_eq!(back.bug, case.bug);
        assert_eq!(back.faults, case.faults);
        assert_eq!(back.items, case.items);
    }

    #[test]
    fn nf_fault_verbs_round_trip() {
        // The recovery verbs travel as DSL text inside the artifact; a
        // replayed case must get back the identical plan and bug.
        let s = generate(&ScenarioConfig {
            seed: 3,
            chain: "snort-monitor".into(),
            with_faults: false,
            nf_faults: true,
        });
        assert!(s.faults.to_dsl().contains("nfkill"), "{}", s.faults.to_dsl());
        let case = SimCase {
            chain: "snort-monitor".into(),
            env: Platform::Bess,
            compiled: true,
            batch: 1,
            workers: 1,
            seed: 3,
            max_flows: 0,
            bug: Some(BugKind::SkipSnapshotReplay),
            items: s.items,
            faults: s.faults,
        };
        let text = to_json(&case, None);
        let back = from_json(&text).unwrap();
        assert_eq!(back.faults, case.faults);
        assert_eq!(back.bug, case.bug);
        assert_eq!(back.faults.to_dsl(), case.faults.to_dsl());
    }

    #[test]
    fn pre_recovery_artifacts_still_parse() {
        // Artifacts written before the nfkill/nfrecover/snap verbs (and
        // the skip-snapshot-replay bug) existed carry only the old fault
        // vocabulary; they must keep replaying unchanged.
        let s = generate(&ScenarioConfig {
            seed: 5,
            chain: "chain2".into(),
            with_faults: false,
            nf_faults: false,
        });
        let case = SimCase {
            chain: "chain2".into(),
            env: Platform::Bess,
            compiled: true,
            batch: 1,
            workers: 1,
            seed: 5,
            max_flows: 0,
            bug: None,
            items: s.items,
            faults: FaultPlan::parse("churn@0..8;retire@4;evict@6=2").unwrap(),
        };
        let text = to_json(&case, None);
        for verb in ["nfkill", "nfrecover", "snap@"] {
            assert!(!text.contains(verb), "old-style artifact must not carry {verb}");
        }
        let back = from_json(&text).unwrap();
        assert_eq!(back.faults, case.faults);
    }

    #[test]
    fn rejects_bad_artifacts() {
        assert!(from_json("{}").is_err());
        assert!(from_json("not json").is_err());
        assert!(from_json(r#"{"version":99}"#).is_err());
    }

    #[test]
    fn pre_worker_artifacts_replay_single_worker() {
        let s = generate(&ScenarioConfig {
            seed: 2,
            chain: "chain1".into(),
            with_faults: false,
            nf_faults: false,
        });
        let case = SimCase {
            chain: "chain1".into(),
            env: Platform::Bess,
            compiled: true,
            batch: 1,
            workers: 1,
            seed: 2,
            max_flows: 0,
            bug: None,
            items: s.items,
            faults: s.faults,
        };
        let mut text = to_json(&case, None);
        // Simulate an artifact written before the workers field existed.
        text = text.replace("\"workers\":1,", "");
        assert!(!text.contains("workers"));
        let back = from_json(&text).unwrap();
        assert_eq!(back.workers, 1);
    }
}
