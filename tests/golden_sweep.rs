//! Golden-file regression guard for the simulation core.
//!
//! The committed fixtures under `tests/fixtures/` pin the simulator's
//! output byte for byte:
//!
//! - `smoke_grid.csv`: `examples/grids/smoke.json` (all four paper
//!   strategies over two load levels), plain sweep;
//! - `{policies,fleet,faults,crossover,generated}_grid.csv`: every other
//!   committed grid, swept with `--attribution`, which adds the
//!   wait-decomposition columns.
//!
//! Asserting byte-identical output at several thread counts keeps every
//! refactor honest: results cannot silently drift, and the executor's
//! determinism contract (same bytes at any thread count) is checked on
//! every grid.
//!
//! If a change is *supposed* to alter results (a new model, a fixed bug
//! in the physics), regenerate the fixtures and say so in the PR:
//!
//! ```text
//! cargo run --release --bin hpcqc-sim -- sweep \
//!     --grid examples/grids/smoke.json --format csv \
//!     --out tests/fixtures/smoke_grid.csv
//! for g in policies fleet faults crossover generated; do
//!     cargo run --release --bin hpcqc-sim -- sweep \
//!         --grid examples/grids/$g.json --attribution --threads 2 \
//!         --format csv --out tests/fixtures/${g}_grid.csv
//! done
//! ```

use hpcqc::prelude::*;

fn load_grid(name: &str) -> Grid {
    let path = format!("{}/examples/grids/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let grid: Grid = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    grid.validate().unwrap_or_else(|e| panic!("{path}: {e}"));
    grid
}

fn load_smoke_grid() -> Grid {
    load_grid("smoke")
}

const GOLDEN: &str = include_str!("fixtures/smoke_grid.csv");

#[test]
fn smoke_grid_csv_matches_golden_fixture() {
    let grid = load_smoke_grid();
    let result = Executor::new(2).run_sim(&grid).expect("smoke grid runs");
    let csv = result.to_csv();
    assert!(
        csv == GOLDEN,
        "smoke-grid CSV drifted from the golden fixture.\n\
         If the change is intentional, regenerate tests/fixtures/smoke_grid.csv \
         (see this file's header) and explain the drift in the PR.\n\
         --- golden ---\n{GOLDEN}\n--- current ---\n{csv}"
    );
}

#[test]
fn golden_output_is_thread_count_invariant() {
    let grid = load_smoke_grid();
    for threads in [1, 4] {
        let csv = Executor::new(threads)
            .run_sim(&grid)
            .expect("smoke grid runs")
            .to_csv();
        assert_eq!(csv, GOLDEN, "drift at {threads} threads");
    }
}

/// The committed grids swept with `--attribution`, each with its fixture.
const ATTRIBUTED_GOLDEN: [(&str, &str); 5] = [
    ("policies", include_str!("fixtures/policies_grid.csv")),
    ("fleet", include_str!("fixtures/fleet_grid.csv")),
    ("faults", include_str!("fixtures/faults_grid.csv")),
    ("crossover", include_str!("fixtures/crossover_grid.csv")),
    ("generated", include_str!("fixtures/generated_grid.csv")),
];

#[test]
fn attributed_grids_match_golden_fixtures_at_every_thread_count() {
    for (name, golden) in ATTRIBUTED_GOLDEN {
        let grid = load_grid(name);
        for threads in [1, 2, 4] {
            let csv = Executor::new(threads)
                .run_sim_attributed(&grid)
                .unwrap_or_else(|e| panic!("{name} grid runs: {e}"))
                .to_csv();
            assert!(
                csv == golden,
                "{name} grid CSV drifted from tests/fixtures/{name}_grid.csv \
                 at {threads} threads.\n\
                 If the change is intentional, regenerate the fixture (see this \
                 file's header) and explain the drift in the PR.\n\
                 --- golden ---\n{golden}\n--- current ---\n{csv}"
            );
        }
    }
}
