//! Pins the experiment artefacts and the `janus list` text byte for byte.
//!
//! Each pinned experiment runs at `Scale::Quick` through the
//! `ExperimentRegistry`, exactly as `janus run <name> --quick --out PATH`
//! does, and the SHA-256 of its `--out` document is compared with
//! `specs/golden_digests.sha256`. Wall-clock measurements (synthesis times,
//! decision latencies, per-cell and per-run wall time and the rates derived
//! from it) are the only keys dropped before hashing; everything else in
//! those documents is deterministic in the seed. The three sweep
//! experiments additionally pin the digest of their stdout summary.
//!
//! After an intended change to a pinned output, replace the committed file
//! with the `actual` text the failing assertion prints (for the listing:
//! `janus list > specs/janus_list.txt`) and commit it with the change.

use janus_bench::cli::listing;
use janus_core::experiments::{ExperimentCtx, ExperimentRegistry, Scale};
use janus_json::Value;

/// The pinned experiments, in `janus list` order.
const PINNED: [&str; 17] = [
    "fig1a",
    "fig1b",
    "fig1c",
    "fig2",
    "table1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table2",
    "overhead",
    "scenarios",
    "capacity",
    "chaos_resilience",
    "flash_scale",
];

/// The experiments whose stdout summary is pinned next to their `--out`
/// document.
const SUMMARY_PINNED: [&str; 3] = ["scenarios", "capacity", "chaos_resilience"];

fn spec_path(file: &str) -> String {
    format!("{}/../../specs/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// Keys holding wall-clock measurements: Figure 6's synthesis-time series,
/// the overhead report's decision latencies and synthesis time, and the
/// wall time and throughput rates of the sweeps and the flash-scale run.
fn is_wall_clock(experiment: &str, key: &str) -> bool {
    match experiment {
        "fig6" => key == "janus_time_s" || key == "janus_plus_time_s",
        "overhead" => key.ends_with("_us") || key == "synthesis_ms",
        "capacity" => key == "wall_ms" || key == "requests_per_sec",
        "chaos_resilience" => key == "wall_ms" || key == "cells_per_sec",
        "flash_scale" => matches!(key, "wall_ms" | "events_per_sec" | "arrivals_per_sec"),
        _ => false,
    }
}

fn strip(value: Value, experiment: &str) -> Value {
    match value {
        Value::Obj(members) => Value::Obj(
            members
                .into_iter()
                .filter(|(key, _)| !is_wall_clock(experiment, key))
                .map(|(key, v)| (key, strip(v, experiment)))
                .collect(),
        ),
        Value::Arr(items) => Value::Arr(items.into_iter().map(|v| strip(v, experiment)).collect()),
        other => other,
    }
}

/// Compare `actual` with the committed file.
fn check(file: &str, actual: &str) {
    let path = spec_path(file);
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    assert!(
        expected == actual,
        "{file} is stale:\n--- committed\n{expected}\n--- actual\n{actual}"
    );
}

#[test]
fn quick_artefacts_match_the_committed_digests() {
    let registry = ExperimentRegistry::with_builtins();
    let ctx = ExperimentCtx::new(Scale::Quick);
    let mut digests = String::new();
    for name in PINNED {
        let output = registry
            .run(name, &ctx)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // The `--out` document: pretty JSON plus a trailing newline.
        let mut doc = strip(output.to_json(), name).to_pretty();
        doc.push('\n');
        digests.push_str(&format!(
            "{}  {name}\n",
            janus_results::sha256_hex(doc.as_bytes())
        ));
        if SUMMARY_PINNED.contains(&name) {
            digests.push_str(&format!(
                "{}  {name}.summary\n",
                janus_results::sha256_hex(output.summary().as_bytes())
            ));
        }
    }
    check("golden_digests.sha256", &digests);
}

#[test]
fn janus_list_text_is_pinned() {
    check("janus_list.txt", &listing());
}
