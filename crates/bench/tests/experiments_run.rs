//! Integration: every experiment id runs, renders non-empty text and
//! structured JSON, and the headline shape claims hold.

use abr_bench::experiments::{all_ids, run, run_jobs, traced_sessions};
use abr_bench::runner::SessionOutcome;
use abr_obs::Event;
use serde_json::Value;

#[test]
fn every_experiment_runs_and_renders() {
    for id in all_ids() {
        let r = run(id).unwrap_or_else(|| panic!("unknown id {id}"));
        assert_eq!(r.id, id);
        assert!(!r.title.is_empty());
        assert!(
            r.text.len() > 80,
            "{id}: text too small ({} bytes)",
            r.text.len()
        );
        assert!(r.json.is_object(), "{id}: json must be an object");
    }
}

#[test]
fn unknown_id_is_none() {
    assert!(run("nope").is_none());
    assert!(run("").is_none());
    assert!(traced_sessions("nope", 1).is_none());
}

#[test]
fn headline_shapes_hold_in_json() {
    // F2a: V3+B2 dominates all chunks.
    let f2a = run("f2a").unwrap().json;
    assert_eq!(f2a["dominant_combo"], "V3+A2"); // B-set renders as A-names
    assert_eq!(f2a["dominant_chunks"], 75);
    assert_eq!(f2a["better_excluded"], true);

    // F3a: A3 pinned, everything off-manifest.
    let f3a = run("f3a").unwrap().json;
    assert_eq!(f3a["audio_tracks_used"], serde_json::json!([2]));
    assert_eq!(f3a["off_manifest_chunks"], 75);

    // F4a: flat default estimate.
    let f4a = run("f4a").unwrap().json;
    assert_eq!(f4a["estimate_flat_500"], true);
    assert_eq!(f4a["dominant_combo"], "V2+A2");

    // F4b: overestimation after bursts.
    let f4b = run("f4b").unwrap().json;
    assert!(f4b["late_max_estimate_kbps"].as_f64().unwrap() > 1000.0);

    // F3fix: the repaired player stops stalling.
    let f3fix = run("f3fix").unwrap().json;
    let rows = f3fix["rows"].as_array().unwrap();
    let stock = &rows[0];
    let fixed = &rows[1];
    assert!(stock["total_stall_s"].as_f64().unwrap() > 20.0);
    assert!(fixed["total_stall_s"].as_f64().unwrap() < 2.0);

    // BP3: extension-driven session never leaves the manifest.
    let bp3 = run("bp3").unwrap().json;
    assert_eq!(bp3["off_manifest_chunks"], 0);

    // M1: storage expansion factor in the expected band.
    let m1 = run("m1").unwrap().json;
    let factor = m1["expansion_factor"].as_f64().unwrap();
    assert!((3.0..4.0).contains(&factor), "{factor}");
    assert_eq!(m1["muxed_user_b_hits"], 0);

    // M3: demuxed viewer B pulls far fewer origin bytes than muxed.
    let m3 = run("m3").unwrap().json;
    let rows = m3["rows"].as_array().unwrap();
    let demuxed_mb = rows[0]["viewer_b_origin_mb"].as_f64().unwrap();
    let muxed_mb = rows[1]["viewer_b_origin_mb"].as_f64().unwrap();
    assert!(demuxed_mb * 3.0 < muxed_mb, "{demuxed_mb} vs {muxed_mb}");
}

/// The figure and the `--trace`/`--profile` path run the same sessions:
/// every traced outcome of every experiment that runs a session, at jobs
/// 1 and 2, summarizes to the values the figure's JSON reports for that
/// session. m3's rows report viewer B of each edge, whose trace also
/// carries the edge's hits and misses, one `cache_lookup` per request.
#[test]
fn figure_and_trace_paths_run_the_same_sessions() {
    let mut covered = Vec::new();
    for id in all_ids() {
        let Some(serial) = traced_sessions(id, 1) else {
            continue;
        };
        covered.push(id);
        let json = run_jobs(id, 1).expect("listed id").json;
        let reported: Vec<&Value> = match json["rows"].as_array() {
            Some(rows) => rows.iter().collect(),
            None => vec![&json["session"]],
        };
        let parallel = traced_sessions(id, 2).expect("traceable at jobs=2");
        for (jobs, outcomes) in [(1, serial), (2, parallel)] {
            let outcomes: Vec<&SessionOutcome> = if id == "m3" {
                outcomes.iter().skip(1).step_by(2).collect()
            } else {
                outcomes.iter().collect()
            };
            assert_eq!(outcomes.len(), reported.len(), "{id} at jobs={jobs}");
            for (outcome, row) in outcomes.into_iter().zip(&reported) {
                let q = abr_qoe::summarize(&outcome.log);
                let at = format!("{} at jobs={jobs}", outcome.label);
                match id {
                    "m2" => {
                        assert_eq!(row["mean_video_kbps"], q.mean_video_kbps, "{at}");
                        assert_eq!(row["mean_audio_kbps"], q.mean_audio_kbps, "{at}");
                        let imbalance = q.max_imbalance.as_secs_f64();
                        assert_eq!(row["max_imbalance_s"].as_f64(), Some(imbalance), "{at}");
                    }
                    "m3" => {
                        let startup = q.startup_delay.map(abr_event::Duration::as_secs_f64);
                        assert_eq!(row["viewer_b_startup_s"].as_f64(), startup, "{at}");
                        let lookups: Vec<bool> = (outcome.events.iter())
                            .filter_map(|e| match e.event {
                                Event::CacheLookup { hit, .. } => Some(hit),
                                _ => None,
                            })
                            .collect();
                        let hits = lookups.iter().filter(|&&hit| hit).count();
                        assert_eq!(row["viewer_b_hits"], hits as u64, "{at}");
                        assert_eq!(
                            row["viewer_b_misses"],
                            (lookups.len() - hits) as u64,
                            "{at}"
                        );
                    }
                    _ => {
                        assert_eq!(row["score"].as_f64(), Some(q.score), "{at}: score");
                        let stalls = q.stall_count as u64;
                        assert_eq!(row["stalls"].as_u64(), Some(stalls), "{at}: stalls");
                    }
                }
            }
        }
    }
    assert_eq!(
        covered,
        [
            "f2a", "f2b", "f3a", "f3b", "f3x", "f3fix", "f4a", "f4b", "f5a", "f5b", "bp1", "bp2",
            "bp3", "bp4", "bp5", "m2", "m3"
        ]
    );
}
