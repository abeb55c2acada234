//! Resume-after-interruption coverage for the content-addressed results
//! store: a sweep killed mid-grid leaves a partial results directory; a
//! `--resume` run must execute exactly the missing cells and still produce
//! a byte-identical aggregate, and `janus report` must aggregate the
//! completed directory. The cache epoch is pinned against the cell
//! semantics, so a change to what a cell holds cannot keep replaying stale
//! cells.

use janus_core::experiments::{
    run_sweep, run_sweep_stored, ResultsReport, StoreMode, SweepPoint, SweepSpec, ToJson,
    RESULTS_EPOCH,
};
use janus_results::ResultsStore;
use std::path::{Path, PathBuf};
use std::str::FromStr as _;

/// A 2-scenario x 2-seed grid: four cells, small enough to run in-process
/// but wide enough that "half the grid" is a meaningful interruption point.
fn four_cell_spec() -> SweepSpec {
    SweepSpec::from_str(
        r#"{
            "name": "resume-grid",
            "app": "IA",
            "concurrency": 1,
            "policies": ["GrandSLAM"],
            "scenarios": ["poisson", "flash-crowd"],
            "loads_rps": [2],
            "seeds": [7, 11],
            "requests": 30,
            "samples_per_point": 250,
            "budget_step_ms": 10
        }"#,
    )
    .expect("spec decodes")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("janus-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Cell files in `dir`, sorted by name (dotfiles — in-flight temp files —
/// excluded, as the store itself excludes them).
fn cell_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read results dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| !n.starts_with('.'))
        .collect();
    names.sort();
    names
}

fn run_counting(
    spec: &SweepSpec,
    store: Option<(&ResultsStore, StoreMode)>,
) -> (janus_core::experiments::SweepResult, usize, usize) {
    let live = std::sync::atomic::AtomicUsize::new(0);
    let replayed = std::sync::atomic::AtomicUsize::new(0);
    let count = |point: &SweepPoint| {
        let slot = if point.cached { &replayed } else { &live };
        slot.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    };
    let result = run_sweep_stored(spec, store, &count).expect("sweep runs");
    (result, live.into_inner(), replayed.into_inner())
}

#[test]
fn resuming_an_interrupted_sweep_runs_only_the_missing_cells() {
    let spec = four_cell_spec();

    // Uninterrupted baseline: every cell runs live and lands in the store.
    let full_dir = scratch_dir("full");
    let full_store = ResultsStore::open(&full_dir).expect("open full store");
    let (baseline, live, replayed) = run_counting(&spec, Some((&full_store, StoreMode::Reuse)));
    assert_eq!((live, replayed), (4, 0), "cold sweep runs the whole grid");
    assert_eq!(baseline.cache_hits, 0);
    let cells = cell_files(&full_dir);
    assert_eq!(cells.len(), 4, "one cell file per grid point: {cells:?}");
    let baseline_doc = baseline.to_json().to_pretty();
    let baseline_shown = format!("{baseline}");

    // Simulate a mid-grid kill: a partial directory holding only half the
    // cells, exactly what a sweep interrupted after two points leaves
    // behind (atomic writes mean cells are either whole or absent).
    let partial_dir = scratch_dir("partial");
    std::fs::create_dir_all(&partial_dir).expect("create partial dir");
    for name in &cells[..2] {
        std::fs::copy(full_dir.join(name), partial_dir.join(name)).expect("copy cell");
    }

    // Resume: exactly the two missing cells execute, the two survivors
    // replay, and every published figure matches the uninterrupted run
    // (only the re-run cells' wall-clock cost may differ, as it must).
    let partial_store = ResultsStore::open_existing(&partial_dir).expect("resume opens");
    let (resumed, live, replayed) = run_counting(&spec, Some((&partial_store, StoreMode::Reuse)));
    assert_eq!((live, replayed), (2, 2), "resume runs only missing cells");
    assert_eq!(resumed.cache_hits, 2);
    assert_eq!(resumed.points.len(), baseline.points.len());
    for (r, b) in resumed.points.iter().zip(&baseline.points) {
        assert_eq!(r.session, b.session, "resume preserves grid order");
        assert_eq!(r.policies, b.policies, "resumed figures diverged");
    }
    assert_eq!(
        cell_files(&partial_dir),
        cells,
        "resume completes the store"
    );

    // Warm re-run on the completed store: nothing executes, and with every
    // cell (including wall-clock cost) replayed from disk the aggregate
    // reproduces the resume run byte for byte in JSON and rendered forms.
    let (warm, live, replayed) = run_counting(&spec, Some((&partial_store, StoreMode::Reuse)));
    assert_eq!((live, replayed), (0, 4), "warm run executes nothing");
    assert_eq!(warm.cache_hits, 4);
    assert_eq!(warm.to_json().to_pretty(), resumed.to_json().to_pretty());
    assert_eq!(format!("{warm}"), format!("{resumed}"));

    // And a warm run over the uninterrupted store reproduces the original
    // baseline byte for byte — zero sessions run either way.
    let (warm_full, live, replayed) = run_counting(&spec, Some((&full_store, StoreMode::Reuse)));
    assert_eq!((live, replayed), (0, 4));
    assert_eq!(warm_full.to_json().to_pretty(), baseline_doc);
    assert_eq!(format!("{warm_full}"), baseline_shown);

    let _ = std::fs::remove_dir_all(&full_dir);
    let _ = std::fs::remove_dir_all(&partial_dir);
}

#[test]
fn report_aggregates_a_completed_results_directory() {
    let spec = four_cell_spec();
    let dir = scratch_dir("report");
    let store = ResultsStore::open(&dir).expect("open store");
    run_sweep_stored(&spec, Some((&store, StoreMode::Reuse)), &|_| {}).expect("sweep runs");

    let report = ResultsReport::from_store(&store).expect("report builds");
    assert_eq!(report.cells, 4);
    assert_eq!(report.rows.len(), 4, "one policy per cell");
    assert_eq!(report.policies(), vec!["GrandSLAM".to_string()]);

    let rendered = report.render();
    assert!(rendered.contains("4 cells"), "{rendered}");
    assert!(rendered.contains("GrandSLAM"), "{rendered}");
    assert!(rendered.contains("poisson"), "{rendered}");
    assert!(rendered.contains("flash-crowd"), "{rendered}");

    let csv = report.to_csv();
    assert_eq!(csv.lines().count(), 1 + 4, "header plus one line per row");
    assert!(csv
        .lines()
        .next()
        .unwrap()
        .starts_with("scenario,rps,seed,"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn results_epoch_moves_whenever_the_cell_semantics_do() {
    // `specs/results_epoch.txt` pins `RESULTS_EPOCH` next to the SHA-256 of
    // every `PolicyCell` document of the committed chaos grid, whose points
    // cover the scenario, capacity and fault fields. A change that moves
    // the published cells must bump the epoch, or every `--results`
    // directory would keep replaying cells the code no longer produces.
    let root = format!("{}/../../specs", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(format!("{root}/chaos_grid.json")).unwrap();
    let result = run_sweep(&SweepSpec::from_str(&text).unwrap()).unwrap();
    let cells: Vec<String> = result
        .points
        .iter()
        .flat_map(|point| &point.policies)
        .map(|cell| cell.to_json().to_compact())
        .collect();
    let digest = janus_results::sha256_hex(cells.join("\n").as_bytes());
    let actual = format!("{RESULTS_EPOCH}  RESULTS_EPOCH\n{digest}  specs/chaos_grid.json\n");

    let path = format!("{root}/results_epoch.txt");
    let committed = std::fs::read_to_string(&path).unwrap();
    let committed_epoch = committed.split_whitespace().next().unwrap_or("");
    assert!(
        committed_epoch != RESULTS_EPOCH.to_string() || committed == actual,
        "the cells of specs/chaos_grid.json changed while RESULTS_EPOCH stayed at \
         {RESULTS_EPOCH}: bump RESULTS_EPOCH in crates/core/src/experiments/sweep.rs, then \
         refresh {path} with the bumped epoch and the new digest {digest}"
    );
    assert_eq!(
        committed, actual,
        "RESULTS_EPOCH moved: refresh {path} with the new text"
    );
}
