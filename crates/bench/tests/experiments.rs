//! Every experiment, run through the runner at the smallest scale with one
//! trial: each table keeps the rows and columns it has always printed, no
//! cell is empty, and E6 still compares every replayed heap with its
//! recording's.

use drink_bench::{Ctx, Line, EXPERIMENTS};
use drink_workloads::all_profiles;

#[test]
fn every_experiment_prints_its_rows_and_no_empty_cell() {
    let ctx = Ctx { scale: 1e-6, trials: Some(1) };
    let programs: Vec<String> = all_profiles().into_iter().map(|p| p.spec.name).collect();
    // E1's five transition kinds; one row per profile; syncInc's three and
    // racyInc's four configurations; three programs × ten policy settings;
    // three self-read modes; four profiles and syncInc.
    let rows = [5, 13, 13, 13, 7, 13, 13, 30, 3, 5];
    for (e, want) in EXPERIMENTS.iter().zip(rows) {
        let t = (e.run)(&ctx);
        let mut labels = Vec::new();
        for line in &t.lines {
            let cells = match line {
                Line::Row(c) => {
                    labels.push(c[0].clone());
                    c.clone()
                }
                Line::Total(c) => c.clone(),
                Line::Paper(c) => [vec!["[paper]".into()], c.clone()].concat(),
                Line::Text(_) => continue,
            };
            assert_eq!(cells.len(), t.header.len(), "{}: {cells:?}", e.id);
            assert!(cells.iter().all(|c| !c.is_empty()), "{}: an empty cell in {cells:?}", e.id);
        }
        assert_eq!(labels.len(), want, "{}: {labels:?}", e.id);
        if want == programs.len() {
            assert_eq!(labels, programs, "{}", e.id);
        }
        assert!(!t.runs_on.is_empty(), "{}: names no support", e.id);
        if e.id == "E6" {
            // Two recorders × 13 profiles × one trial, each replay compared.
            let heaps = ("replays that reproduced the recorded heap: 26/26".to_string(), true);
            assert_eq!(t.checks, vec![heaps]);
        }
    }
}
